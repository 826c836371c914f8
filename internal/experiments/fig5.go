package experiments

import (
	"repro/internal/baseline"
	"repro/internal/renewable"
	"repro/internal/report"
	"repro/internal/sim"
)

// Fig5BudgetPoint is one carbon budget of the Fig. 5(a,b) sweep; costs are
// normalized by the carbon-unaware average cost.
type Fig5BudgetPoint struct {
	BudgetFrac  float64 // budget / unaware usage
	CocaCost    float64 // normalized
	OptCost     float64 // normalized
	UnawareCost float64 // 1 by construction
	CocaNeutral bool
}

// Fig5Result reproduces the Fig. 5 sensitivity studies.
type Fig5Result struct {
	BudgetSweepFIU []Fig5BudgetPoint // Fig. 5(a)
	BudgetSweepMSR []Fig5BudgetPoint // Fig. 5(b)

	// Fig. 5(c): workload overestimation φ → normalized cost (vs φ=1).
	OverestimateFactors []float64
	OverestimateCost    []float64

	// Fig. 5(d): switching cost (fraction of 0.231 kWh) → normalized cost.
	SwitchFractions []float64
	SwitchCost      []float64
}

// Fig5 runs the four sensitivity studies of §5.2.4.
func Fig5(cfg Config) (Fig5Result, error) {
	if err := cfg.fill(); err != nil {
		return Fig5Result{}, err
	}
	var res Fig5Result
	var err error
	res.BudgetSweepFIU, err = budgetSweep(cfg, false)
	if err != nil {
		return res, err
	}
	res.BudgetSweepMSR, err = budgetSweep(cfg, true)
	if err != nil {
		return res, err
	}
	if res.OverestimateFactors, res.OverestimateCost, err = overestimateSweep(cfg); err != nil {
		return res, err
	}
	if res.SwitchFractions, res.SwitchCost, err = switchSweep(cfg); err != nil {
		return res, err
	}

	if cfg.Out != nil {
		for i, sweep := range [][]Fig5BudgetPoint{res.BudgetSweepFIU, res.BudgetSweepMSR} {
			title := "Fig 5(a): normalized avg cost vs carbon budget (FIU-like workload)"
			if i == 1 {
				title = "Fig 5(b): normalized avg cost vs carbon budget (MSR-like workload)"
			}
			t := report.NewTable(title, "budget", "COCA", "OPT", "carbon-unaware", "COCA neutral")
			for _, p := range sweep {
				t.AddRow(p.BudgetFrac, p.CocaCost, p.OptCost, p.UnawareCost, p.CocaNeutral)
			}
			if err := t.Render(cfg.Out); err != nil {
				return res, err
			}
		}
		t := report.NewTable("Fig 5(c): workload overestimation", "phi", "normalized cost")
		for i := range res.OverestimateFactors {
			t.AddRow(res.OverestimateFactors[i], res.OverestimateCost[i])
		}
		if err := t.Render(cfg.Out); err != nil {
			return res, err
		}
		t = report.NewTable("Fig 5(d): switching cost", "fraction of 0.231 kWh", "normalized cost")
		for i := range res.SwitchFractions {
			t.AddRow(res.SwitchFractions[i], res.SwitchCost[i])
		}
		if err := t.Render(cfg.Out); err != nil {
			return res, err
		}
	}
	return res, nil
}

// budgetSweep reruns calibration at several budget fractions and compares
// COCA, OPT and the carbon-unaware algorithm, normalizing by the unaware
// cost (the paper normalizes usage by the unaware algorithm's 1.55e5 MWh).
// The fractions are independent end-to-end (each builds its own scenario),
// so they fan out on the worker pool; the per-fraction work, calibration
// included, stays sequential to keep the pool bounded.
func budgetSweep(cfg Config, msr bool) ([]Fig5BudgetPoint, error) {
	fracs := []float64{0.85, 0.90, 0.92, 0.95, 1.00, 1.05}
	return mapIndexed(cfg.workers(), cfg.pool(), len(fracs), func(i int) (Fig5BudgetPoint, error) {
		c := cfg
		c.Budget = fracs[i]
		c.Out = nil
		c.Workers = 1
		sc, _, err := c.Scenario(msr)
		if err != nil {
			return Fig5BudgetPoint{}, err
		}
		unSum, err := sim.RunSummary(sc, baseline.NewUnaware(sc))
		if err != nil {
			return Fig5BudgetPoint{}, err
		}
		_, cocaSum, _, err := tuneV(sc, c.VGrid, 1, c.pool())
		if err != nil {
			return Fig5BudgetPoint{}, err
		}
		opt, err := baseline.NewOPT(sc)
		if err != nil {
			return Fig5BudgetPoint{}, err
		}
		optSum, err := sim.RunSummary(sc, opt)
		if err != nil {
			return Fig5BudgetPoint{}, err
		}
		return Fig5BudgetPoint{
			BudgetFrac:  fracs[i],
			CocaCost:    cocaSum.AvgHourlyCostUSD / unSum.AvgHourlyCostUSD,
			OptCost:     optSum.AvgHourlyCostUSD / unSum.AvgHourlyCostUSD,
			UnawareCost: 1,
			CocaNeutral: cocaSum.BudgetUsedFraction <= 1.0,
		}, nil
	})
}

// overestimateSweep measures the Fig. 5(c) robustness: COCA decides against
// φ·λ(t) but is charged against the true λ(t).
func overestimateSweep(cfg Config) ([]float64, []float64, error) {
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		return nil, nil, err
	}
	return costSweep(cfg, sc, []float64{1.0, 1.05, 1.10, 1.15, 1.20}, func(run *sim.Scenario, phi float64) {
		run.Overestimate = phi
	})
}

// switchSweep measures the Fig. 5(d) robustness: switching cost as a
// fraction of a server's maximum hourly energy (0.231 kWh), internalized by
// COCA and charged by the engine.
func switchSweep(cfg Config) ([]float64, []float64, error) {
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		return nil, nil, err
	}
	maxEnergy := sc.Server.MaxBusyKW() // 0.231 kWh per hour at full speed
	return costSweep(cfg, sc, []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10}, func(run *sim.Scenario, frac float64) {
		run.SwitchCostKWh = frac * maxEnergy
	})
}

// PortfolioMixStudy verifies the §5.2.4 note that COCA is insensitive to
// the off-site/REC split with the total budget held fixed (the paper
// reports < 1% change). It returns the normalized cost at each off-site
// share.
func PortfolioMixStudy(cfg Config) ([]float64, []float64, error) {
	if err := cfg.fill(); err != nil {
		return nil, nil, err
	}
	sc, refGrid, err := cfg.Scenario(false)
	if err != nil {
		return nil, nil, err
	}
	budget := cfg.Budget * refGrid
	pristine := sc.Portfolio.OffsiteKWh
	return costSweep(cfg, sc, []float64{0.0, 0.2, 0.4, 0.6, 0.8}, func(run *sim.Scenario, share float64) {
		offsite := pristine.Copy()
		renewable.ScaleToTotal(offsite, sc.Slots, share*budget)
		run.Portfolio = run.Portfolio.Clone()
		run.Portfolio.OffsiteKWh = offsite
		run.Portfolio.RECsKWh = (1 - share) * budget
	})
}

// costSweep tunes V once on sc, then runs COCA at that V on one clone of
// sc per value, mutated by set, and returns the values with each run's
// average hourly cost normalized by the first run's. Each value mutates
// its own clone, so the parallel workers never share a knob; set must
// clone anything shared (such as the portfolio) before writing into it.
func costSweep(cfg Config, sc *sim.Scenario, values []float64, set func(run *sim.Scenario, v float64)) ([]float64, []float64, error) {
	v, _, _, err := tuneV(sc, cfg.VGrid, cfg.workers(), cfg.pool())
	if err != nil {
		return nil, nil, err
	}
	sums, err := mapIndexed(cfg.workers(), cfg.pool(), len(values), func(i int) (sim.Summary, error) {
		run := sc.Clone()
		set(run, values[i])
		return summarizeCOCA(run, v)
	})
	if err != nil {
		return nil, nil, err
	}
	costs := make([]float64, len(values))
	for i := range sums {
		costs[i] = sums[i].AvgHourlyCostUSD / sums[0].AvgHourlyCostUSD
	}
	return values, costs, nil
}
