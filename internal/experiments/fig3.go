package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig3Result reproduces Fig. 3: COCA versus the prediction-based PerfectHP.
type Fig3Result struct {
	CocaV       float64 // neutral operating point, picked by TuneV's rule
	Coca        sim.Summary
	PerfectHP   sim.Summary
	SavingFrac  float64 // (PHP − COCA)/PHP on average hourly cost; paper: > 0.25
	CocaNeutral bool    // COCA within budget

	// Running averages ("summing from time 0 to t, divided by t+1").
	RunningCostCoca    []float64
	RunningCostPHP     []float64
	RunningDeficitCoca []float64
	RunningDeficitPHP  []float64
}

// Fig3 runs the head-to-head comparison of §5.2.2. PerfectHP's year and
// the V grid's COCA years fan out as one batch; PerfectHP, the longest
// job, is job 0 so it starts first. COCA's V is then tuned over the grid
// by TuneV's rule, and the tuned V's grid run is the head-to-head COCA run.
func Fig3(cfg Config) (Fig3Result, error) {
	if err := cfg.fill(); err != nil {
		return Fig3Result{}, err
	}
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		return Fig3Result{}, err
	}
	// Each run keeps only its summary and the two series Fig. 3 charts,
	// and only until the tuned V is picked.
	type run struct {
		sum           sim.Summary
		cost, deficit []float64
	}
	runs, err := mapIndexed(cfg.workers(), cfg.pool(), 1+len(cfg.VGrid), func(i int) (run, error) {
		var (
			r   *sim.Result
			err error
		)
		if i == 0 {
			var php *baseline.PerfectHP
			if php, err = baseline.NewPerfectHP(sc, 48); err == nil {
				r, err = sim.Run(sc, php)
			}
		} else {
			_, r, err = runCOCA(sc, cfg.VGrid[i-1])
		}
		if err != nil {
			return run{}, err
		}
		return run{sum: sim.Summarize(sc, r), cost: r.CostSeries(), deficit: r.DeficitSeries()}, nil
	})
	if err != nil {
		return Fig3Result{}, err
	}
	k := neutralV(len(cfg.VGrid), func(i int) float64 { return runs[1+i].sum.BudgetUsedFraction })
	php, coca := runs[0], runs[1+k]

	res := Fig3Result{CocaV: cfg.VGrid[k], Coca: coca.sum, PerfectHP: php.sum}
	res.CocaNeutral = res.Coca.BudgetUsedFraction <= 1.0
	res.SavingFrac = (res.PerfectHP.AvgHourlyCostUSD - res.Coca.AvgHourlyCostUSD) /
		res.PerfectHP.AvgHourlyCostUSD

	res.RunningCostCoca = stats.RunningAverageSeries(coca.cost)
	res.RunningCostPHP = stats.RunningAverageSeries(php.cost)
	res.RunningDeficitCoca = stats.RunningAverageSeries(coca.deficit)
	res.RunningDeficitPHP = stats.RunningAverageSeries(php.deficit)

	if cfg.Out != nil {
		t := report.NewTable("Fig 3: COCA vs PerfectHP (48-h perfect hourly prediction)",
			"policy", "avg hourly cost ($)", "electricity ($)", "delay ($)", "grid/budget")
		t.AddRow(fmt.Sprintf("COCA (V=%.3g)", res.CocaV),
			res.Coca.AvgHourlyCostUSD, res.Coca.AvgElectricityUSD, res.Coca.AvgDelayUSD,
			res.Coca.BudgetUsedFraction)
		t.AddRow("PerfectHP", res.PerfectHP.AvgHourlyCostUSD, res.PerfectHP.AvgElectricityUSD,
			res.PerfectHP.AvgDelayUSD, res.PerfectHP.BudgetUsedFraction)
		if err := t.Render(cfg.Out); err != nil {
			return res, err
		}
		cfg.printf("COCA cost saving vs PerfectHP: %.1f%% (paper: > 25%%)\n", res.SavingFrac*100)
		if err := report.Chart(cfg.Out, "Fig 3(a): running avg hourly cost — COCA", res.RunningCostCoca, 72, 8); err != nil {
			return res, err
		}
		if err := report.Chart(cfg.Out, "Fig 3(a): running avg hourly cost — PerfectHP", res.RunningCostPHP, 72, 8); err != nil {
			return res, err
		}
		if err := report.Chart(cfg.Out, "Fig 3(b): running avg carbon deficit — COCA", res.RunningDeficitCoca, 72, 8); err != nil {
			return res, err
		}
		if err := report.Chart(cfg.Out, "Fig 3(b): running avg carbon deficit — PerfectHP", res.RunningDeficitPHP, 72, 8); err != nil {
			return res, err
		}
	}
	return res, nil
}
