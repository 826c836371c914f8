// Package experiments reproduces every figure of the paper's evaluation
// (§5): Fig. 1 (workload traces), Fig. 2 (impact of the cost-carbon
// parameter V), Fig. 3 (COCA versus the prediction-based PerfectHP),
// Fig. 4 (execution of the GSD distributed optimizer) and Fig. 5
// (sensitivity to carbon budget, workload trace, workload overestimation
// and switching cost). Each driver returns structured results — the same
// rows/series the paper plots — and optionally renders tables and ASCII
// charts. EXPERIMENTS.md records paper-claimed versus measured values.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/lyapunov"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/trace"
)

// Config scales the experiment suite. The defaults reproduce the paper's
// §5.1 setup: 216,000 Opteron servers (peak ≈ 50 MW), a one-year horizon,
// peak arrivals 1.1 M req/s (≈ 50% of capacity), a 92% carbon budget split
// 40% off-site / 60% RECs, and on-site renewables at 20% of consumption.
type Config struct {
	Slots   int     // horizon (default: 8760)
	N       int     // fleet size (default: 216000)
	PeakRPS float64 // peak arrival rate (default: 1.1e6)
	Beta    float64 // delay weight (default: 0.02, see DESIGN.md §4)
	Budget  float64 // budget fraction of unaware usage (default: 0.92)
	Seed    uint64  // master seed (default: 2012, the trace year)
	Out     io.Writer

	// Workers bounds the experiment fan-out: independent runs (V sweeps,
	// budget fractions, ablation arms) are mapped onto this many workers,
	// and the scenario's calibration runs on as many.
	// 0 uses all cores; 1 forces strictly sequential execution. Results
	// are deterministic and byte-identical at any worker count.
	Workers int

	// VGrid is the sweep for Fig. 2 and the tuning grid for the neutral
	// operating point; nil selects a default logarithmic grid.
	VGrid []float64

	// Telemetry, when non-nil, receives experiment-pool progress and
	// per-job timing under the "pool" prefix. It never affects results.
	Telemetry *telemetry.Registry

	// Tracer, when non-nil, records execution spans for the experiments
	// that step traceable subsystems on the calling goroutine (the geo
	// federation's smart run, Fig. 4's GSD scale probe); fanned-out
	// worker runs stay untraced because ambient parenting assumes one
	// goroutine. It never affects results.
	Tracer *span.Tracer
}

// Default returns the paper-scale configuration.
func Default() Config {
	return Config{
		Slots:   trace.HoursPerYear,
		N:       216000,
		PeakRPS: 1.1e6,
		Beta:    0.02,
		Budget:  0.92,
		Seed:    2012,
	}
}

// fill applies the paper-scale defaults and validates the fields a zero
// value does not cover. A negative Workers used to slip through workers()'
// `> 0` check and silently mean "all cores"; library callers now get the
// same explicit cliutil error the CLI raises for -workers. Negative sizes
// are rejected here too, before any trace is generated.
func (c *Config) fill() error {
	if err := cliutil.FirstError(
		cliutil.WorkersFor("experiments.Config.Workers", c.Workers),
		cliutil.NonNegativeCount("experiments.Config.Slots", c.Slots),
		cliutil.NonNegativeCount("experiments.Config.N", c.N),
		cliutil.NonNegativeFloat("experiments.Config.PeakRPS", c.PeakRPS),
		cliutil.NonNegativeFloat("experiments.Config.Budget", c.Budget),
	); err != nil {
		return err
	}
	d := Default()
	if c.Slots == 0 {
		c.Slots = d.Slots
	}
	if c.N == 0 {
		c.N = d.N
	}
	if c.PeakRPS == 0 {
		// Scale the paper's 50%-of-capacity peak to the configured fleet.
		c.PeakRPS = d.PeakRPS * float64(c.N) / float64(d.N)
	}
	if c.Beta == 0 {
		c.Beta = d.Beta
	}
	if c.Budget == 0 {
		c.Budget = d.Budget
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.VGrid == nil {
		c.VGrid = defaultVGrid(c.N)
	}
	return checkVGrid(c.VGrid)
}

// errEmptyVGrid rejects a V grid with no points: there is nothing to sweep
// and no neutral operating point to pick.
var errEmptyVGrid = errors.New("experiments: V grid is empty")

// checkVGrid rejects an empty grid and any V that is not a finite positive
// number, which COCA's Lyapunov weight cannot use.
func checkVGrid(grid []float64) error {
	if len(grid) == 0 {
		return errEmptyVGrid
	}
	for i, v := range grid {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("experiments: V grid point %d is %v, want a finite V > 0", i, v)
		}
	}
	return nil
}

// defaultVGrid scales the sweep with fleet size: the interesting V range
// grows with the absolute cost and energy magnitudes.
func defaultVGrid(n int) []float64 {
	scale := float64(n) / 216000
	base := []float64{1e5, 3e5, 1e6, 3e6, 1e7, 3e7, 1e8, 2e8, 3e8, 5e8, 1e9}
	out := make([]float64, len(base))
	for i, v := range base {
		out[i] = v * scale
	}
	return out
}

// Scenario builds the calibrated paper-scale scenario; msr selects the
// MSR-like workload of Fig. 1(b)/5(b) instead of the FIU-like default.
// It returns the scenario and the carbon-unaware reference grid usage.
// The calibration runs on the configured workers.
func (c Config) Scenario(msr bool) (*sim.Scenario, float64, error) {
	if err := c.fill(); err != nil {
		return nil, 0, err
	}
	return simtest.Build(simtest.Options{
		Slots:      c.Slots,
		N:          c.N,
		PeakRPS:    c.PeakRPS,
		Beta:       c.Beta,
		BudgetFrac: c.Budget,
		OnsiteFrac: 0.20,
		Seed:       c.Seed,
		MSR:        msr,
		Workers:    c.workers(),
	})
}

// cocaAt builds COCA with a constant V over the scenario.
func cocaAt(sc *sim.Scenario, v float64) (*core.Policy, error) {
	return core.New(core.FromScenario(sc, lyapunov.ConstantV(v, 1, sc.Slots)))
}

// runCOCA runs COCA with a constant V over the scenario, keeping its
// records.
func runCOCA(sc *sim.Scenario, v float64) (sim.Summary, *sim.Result, error) {
	p, err := cocaAt(sc, v)
	if err != nil {
		return sim.Summary{}, nil, err
	}
	res, err := sim.Run(sc, p)
	if err != nil {
		return sim.Summary{}, nil, err
	}
	return sim.Summarize(sc, res), res, nil
}

// summarizeCOCA is runCOCA without the records: a summary run whose
// observers see every slot.
func summarizeCOCA(sc *sim.Scenario, v float64, observers ...sim.Observer) (sim.Summary, error) {
	p, err := cocaAt(sc, v)
	if err != nil {
		return sim.Summary{}, err
	}
	return sim.RunSummary(sc, p, observers...)
}

// seriesRun is a summary run's result. A run that passes observe to its
// engine also keeps the per-slot cost and deficit series Figs. 2 and 3
// chart.
type seriesRun struct {
	sum           sim.Summary
	cost, deficit []float64
}

// newSeriesRun sizes the series for a horizon of the given slots.
func newSeriesRun(slots int) seriesRun {
	return seriesRun{cost: make([]float64, 0, slots), deficit: make([]float64, 0, slots)}
}

func (r *seriesRun) observe(rec sim.SlotRecord) {
	r.cost = append(r.cost, rec.TotalUSD)
	r.deficit = append(r.deficit, rec.DeficitKWh)
}

// tuneV finds, over the grid, the V whose yearly usage comes closest to the
// budget without exceeding it — the paper's neutral operating point ("COCA
// achieves a close-to-minimum cost with V ≈ 240 while satisfying carbon
// neutrality"). The grid runs fan out on the pool, then neutralV picks the
// winner. It returns the chosen V, its summary and its grid run, which a
// study that needs the tuned run's records reuses instead of simulating
// the year again, or an error for an empty grid.
func tuneV(sc *sim.Scenario, grid []float64, workers int, pm *telemetry.PoolMetrics) (float64, sim.Summary, *sim.Result, error) {
	if len(grid) == 0 {
		return 0, sim.Summary{}, nil, errEmptyVGrid
	}
	type run struct {
		sum sim.Summary
		res *sim.Result
	}
	runs, err := mapIndexed(workers, pm, len(grid), func(i int) (run, error) {
		s, r, err := runCOCA(sc, grid[i])
		return run{s, r}, err
	})
	if err != nil {
		return 0, sim.Summary{}, nil, err
	}
	i := neutralV(len(runs), func(i int) float64 { return runs[i].sum.BudgetUsedFraction })
	return grid[i], runs[i].sum, runs[i].res, nil
}

// neutralV is the tuning rule over n grid runs whose budget fractions frac
// reports: the first run with the largest fraction ≤ 1, or run 0 (the
// smallest V) when every run overshoots. The pick is sequential over the
// grid order, so it is the same at any worker count.
func neutralV(n int, frac func(i int) float64) int {
	best, found := 0, false
	for i := 0; i < n; i++ {
		if f := frac(i); f <= 1.0 && (!found || f > frac(best)) {
			best, found = i, true
		}
	}
	return best
}

func (c Config) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}
