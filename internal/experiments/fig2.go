package experiments

import (
	"repro/internal/core"
	"repro/internal/lyapunov"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig2Point is one V of the constant-V sweep.
type Fig2Point struct {
	V             float64
	AvgCostUSD    float64 // Fig. 2(a)
	AvgDeficitKWh float64 // Fig. 2(b): avg hourly usage minus available budget
	BudgetUsed    float64 // grid usage / budget
}

// Fig2Result reproduces Fig. 2: the impact of the cost-carbon parameter.
type Fig2Result struct {
	Sweep []Fig2Point // Fig. 2(a,b): constant V

	// Fig. 2(c,d): quarterly-varying V; 45-day moving averages.
	VaryingVs         []float64
	MovingAvgCost     []float64
	MovingAvgDeficit  []float64
	UnawareAvgCostUSD float64 // the V→∞ reference
}

// Fig2 sweeps constant V (Fig. 2a,b) and runs a quarterly-varying V
// schedule (Fig. 2c,d), all in one batch of summary runs.
func Fig2(cfg Config) (Fig2Result, error) {
	if err := cfg.fill(); err != nil {
		return Fig2Result{}, err
	}
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		return Fig2Result{}, err
	}
	var res Fig2Result
	// One batch over the V grid, the carbon-unaware V→∞ reference and, at
	// a horizon divisible by 4, Fig. 2(c,d)'s quarterly V: start small
	// (cost high, deficit negative), then increase, demonstrating the
	// tunable tradeoff.
	vs := append(append([]float64(nil), cfg.VGrid...), 1e15)
	jobs := len(vs)
	if cfg.Slots%4 == 0 {
		mid := midGrid(cfg.VGrid)
		res.VaryingVs = []float64{mid / 100, mid, mid * 10, mid}
		jobs++
	}
	runs, err := mapIndexed(cfg.workers(), cfg.pool(), jobs, func(i int) (seriesRun, error) {
		if i < len(vs) {
			s, err := summarizeCOCA(sc, vs[i])
			return seriesRun{sum: s}, err
		}
		sched := lyapunov.VSchedule{T: cfg.Slots / 4, Vs: res.VaryingVs}
		p, err := core.New(core.FromScenario(sc, sched))
		if err != nil {
			return seriesRun{}, err
		}
		r := newSeriesRun(sc.Slots)
		r.sum, err = sim.RunSummary(sc, p, r.observe)
		return r, err
	})
	if err != nil {
		return res, err
	}
	for i, v := range cfg.VGrid {
		res.Sweep = append(res.Sweep, Fig2Point{
			V:             v,
			AvgCostUSD:    runs[i].sum.AvgHourlyCostUSD,
			AvgDeficitKWh: runs[i].sum.AvgDeficitKWh,
			BudgetUsed:    runs[i].sum.BudgetUsedFraction,
		})
	}
	res.UnawareAvgCostUSD = runs[len(vs)-1].sum.AvgHourlyCostUSD
	if jobs > len(vs) {
		window := min(45*24, cfg.Slots)
		res.MovingAvgCost = stats.MovingAverageSeries(runs[jobs-1].cost, window)
		res.MovingAvgDeficit = stats.MovingAverageSeries(runs[jobs-1].deficit, window)
	}

	if cfg.Out != nil {
		t := report.NewTable("Fig 2(a,b): impact of constant V",
			"V", "avg hourly cost ($)", "avg hourly deficit (kWh)", "grid/budget")
		for _, p := range res.Sweep {
			t.AddRow(p.V, p.AvgCostUSD, p.AvgDeficitKWh, p.BudgetUsed)
		}
		t.AddRow("inf (carbon-unaware)", res.UnawareAvgCostUSD, "", "")
		if err := t.Render(cfg.Out); err != nil {
			return res, err
		}
		if len(res.MovingAvgCost) > 0 {
			if err := report.Chart(cfg.Out, "Fig 2(c): 45-day moving avg cost, quarterly V", res.MovingAvgCost, 72, 10); err != nil {
				return res, err
			}
			if err := report.Chart(cfg.Out, "Fig 2(d): 45-day moving avg deficit, quarterly V", res.MovingAvgDeficit, 72, 10); err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

func midGrid(grid []float64) float64 {
	if len(grid) == 0 {
		return 1
	}
	return grid[len(grid)/2]
}
