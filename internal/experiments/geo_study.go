package experiments

import (
	"repro/internal/dcmodel"
	"repro/internal/geo"
	"repro/internal/price"
	"repro/internal/renewable"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// GeoResult compares carbon- and price-aware geographic load balancing
// against a capacity-proportional split on the same three-site federation.
type GeoResult struct {
	SmartCostUSD float64
	NaiveCostUSD float64
	SmartGridKWh float64
	NaiveGridKWh float64
	SavingFrac   float64
	// SiteLoadShare is the smart policy's average load share per site.
	SiteLoadShare []float64
	SiteNames     []string
}

// GeoStudy runs the multi-site extension: three sites with different price
// levels and renewable positions, a shared global workload, and per-site
// carbon-deficit queues steering the split (the geographical-load-balancing
// setting of the paper's refs [21][29][32], driven by COCA's machinery).
func GeoStudy(cfg Config) (GeoResult, error) {
	if err := cfg.fill(); err != nil {
		return GeoResult{}, err
	}
	slots := cfg.Slots
	perSiteN := cfg.N / 3
	if perSiteN < 50 {
		perSiteN = 50
	}
	mkSite := func(name string, priceScale, onsiteKW, budgetPerSlot float64, seed uint64) geo.Site {
		p := price.CAISOYear(seed)
		for i := range p.Values {
			p.Values[i] *= priceScale
		}
		onsite := renewable.Blend(
			[]*trace.Trace{renewable.SolarYear(seed + 1), renewable.WindYear(seed + 2)},
			[]float64{0.5, 0.5},
		)
		for i := range onsite.Values {
			onsite.Values[i] *= onsiteKW
		}
		return geo.Site{
			Name: name, Server: dcmodel.Opteron(), N: perSiteN,
			Gamma: 0.95, PUE: 1,
			Price: p,
			Portfolio: &renewable.Portfolio{
				OnsiteKW:   onsite,
				OffsiteKWh: trace.Constant("f", budgetPerSlot*0.4, slots),
				RECsKWh:    budgetPerSlot * 0.6 * float64(slots),
				Alpha:      1,
			},
		}
	}
	// Per-slot budgets sized around a site's typical draw at one third of
	// the global load (≈ perSiteN/3 active servers ≈ 0.06·perSiteN kWh).
	typical := 0.06 * float64(perSiteN)
	sites := []geo.Site{
		mkSite("hydro-north", 0.6, typical*0.5, typical*1.2, cfg.Seed+10), // cheap, green
		mkSite("metro-east", 1.3, typical*0.1, typical*0.9, cfg.Seed+20),  // expensive, tight budget
		mkSite("desert-west", 0.9, typical*0.8, typical*1.0, cfg.Seed+30), // solar-rich
	}

	run := func(smart bool) (cost, grid float64, shares []float64, err error) {
		sys, err := geo.NewSystem(cloneSites(sites), cfg.Beta, slots)
		if err != nil {
			return 0, 0, nil, err
		}
		if smart {
			// Only the smart arm is observed: it is the run whose per-site
			// allocation decisions the spans and counters explain, and the
			// arms must not share mutable instruments across workers.
			sys.SetTracer(cfg.Tracer)
			if cfg.Telemetry != nil {
				sys.Instrument(telemetry.NewFleetMetrics(cfg.Telemetry, "geo"))
			}
		}
		wl := trace.FIUYear(cfg.Seed).ScaledToPeak(0.5 * sys.TotalCapacityRPS())
		shares = make([]float64, len(sites))
		var totalLoad float64
		v := midGrid(cfg.VGrid) / float64(cfg.N) * float64(3*perSiteN)
		for t := 0; t < slots; t++ {
			var out geo.StepOutcome
			if smart {
				out, err = sys.Step(wl.Values[t], v)
			} else {
				out, err = sys.ProportionalSplit(wl.Values[t], v)
			}
			if err != nil {
				return 0, 0, nil, err
			}
			sys.Settle(out)
			cost += out.TotalCostUSD
			grid += out.TotalGridKWh
			for i, so := range out.Sites {
				shares[i] += so.LoadRPS
			}
			totalLoad += wl.Values[t]
		}
		if totalLoad > 0 {
			for i := range shares {
				shares[i] /= totalLoad
			}
		}
		return cost, grid, shares, nil
	}

	var res GeoResult
	// The smart and naive runs operate on independent site clones: fan out.
	type geoRun struct {
		cost, grid float64
		shares     []float64
	}
	runs, err := mapIndexed(cfg.workers(), cfg.pool(), 2, func(i int) (geoRun, error) {
		cost, grid, shares, err := run(i == 0)
		return geoRun{cost, grid, shares}, err
	})
	if err != nil {
		return res, err
	}
	res.SmartCostUSD, res.SmartGridKWh = runs[0].cost, runs[0].grid
	res.NaiveCostUSD, res.NaiveGridKWh = runs[1].cost, runs[1].grid
	res.SiteLoadShare = runs[0].shares
	for _, s := range sites {
		res.SiteNames = append(res.SiteNames, s.Name)
	}
	if res.NaiveCostUSD > 0 {
		res.SavingFrac = 1 - res.SmartCostUSD/res.NaiveCostUSD
	}

	if cfg.Out != nil {
		t := report.NewTable("Geographic load balancing (multi-site extension)",
			"policy", "total cost ($)", "total grid (kWh)")
		t.AddRow("geo-aware split (per-site deficit queues)", res.SmartCostUSD, res.SmartGridKWh)
		t.AddRow("capacity-proportional split", res.NaiveCostUSD, res.NaiveGridKWh)
		if err := t.Render(cfg.Out); err != nil {
			return res, err
		}
		t2 := report.NewTable("Smart split: average load share per site", "site", "share")
		for i, name := range res.SiteNames {
			t2.AddRow(name, res.SiteLoadShare[i])
		}
		if err := t2.Render(cfg.Out); err != nil {
			return res, err
		}
		cfg.printf("geo-aware saving vs proportional: %.1f%%\n", 100*res.SavingFrac)
	}
	return res, nil
}

// cloneSites deep-copies site portfolios so two runs cannot share queues
// or mutate each other's traces.
func cloneSites(sites []geo.Site) []geo.Site {
	out := make([]geo.Site, len(sites))
	for i, s := range sites {
		out[i] = s
		p := *s.Portfolio
		p.OnsiteKW = s.Portfolio.OnsiteKW.Copy()
		p.OffsiteKWh = s.Portfolio.OffsiteKWh.Copy()
		out[i].Portfolio = &p
		out[i].Price = s.Price.Copy()
	}
	return out
}
