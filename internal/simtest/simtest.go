// Package simtest builds small, fast, fully calibrated scenarios shared by
// the test suites of the sim, core, baseline and experiments packages. The
// scenarios follow the paper's §5.1 calibration pipeline at reduced scale:
// run the carbon-unaware algorithm once to measure reference consumption,
// scale on-site renewables to a fraction of it, and size the carbon budget
// as a fraction of the unaware grid usage.
package simtest

import (
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/dcmodel"
	"repro/internal/price"
	"repro/internal/renewable"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// Options tunes the generated scenario.
type Options struct {
	Slots      int     // horizon (default 14 days)
	N          int     // fleet size (default 2000)
	PeakRPS    float64 // peak arrival rate (default 50% of fleet capacity)
	Beta       float64 // delay weight (default 0.01)
	BudgetFrac float64 // budget as a fraction of unaware usage (default 0.92)
	OnsiteFrac float64 // on-site renewables as a fraction of consumption (default 0.20)
	Seed       uint64
	MSR        bool // use the MSR-like trace instead of FIU-like

	// Workers bounds the calibration's fan-out; 0 or 1 runs it on the
	// calling goroutine. The scenario is bit-identical at any count.
	Workers int
}

// check rejects the negative sizes a zero default does not cover, before
// any trace is generated or indexed.
func (o *Options) check() error {
	return cliutil.FirstError(
		cliutil.NonNegativeCount("simtest.Options.Slots", o.Slots),
		cliutil.NonNegativeCount("simtest.Options.N", o.N),
		cliutil.NonNegativeFloat("simtest.Options.PeakRPS", o.PeakRPS),
		cliutil.NonNegativeFloat("simtest.Options.BudgetFrac", o.BudgetFrac),
		cliutil.WorkersFor("simtest.Options.Workers", o.Workers),
	)
}

func (o *Options) defaults() {
	if o.Slots == 0 {
		o.Slots = 14 * 24
	}
	if o.N == 0 {
		o.N = 2000
	}
	if o.Beta == 0 {
		o.Beta = 0.01
	}
	if o.BudgetFrac == 0 {
		o.BudgetFrac = 0.92
	}
	if o.OnsiteFrac == 0 {
		o.OnsiteFrac = 0.20
	}
	if o.Seed == 0 {
		o.Seed = 12345
	}
}

// Build constructs a calibrated scenario. It runs the carbon-unaware
// reference internally (with zero renewables) to size the on-site supply
// and the carbon budget, exactly like the paper's setup, and returns the
// scenario together with the unaware reference grid usage in kWh.
func Build(o Options) (*sim.Scenario, float64, error) {
	if err := o.check(); err != nil {
		return nil, 0, err
	}
	o.defaults()
	// The renewable shapes depend only on the seed, so they are generated
	// while the workload, the price trace and the first reference run.
	var shapes renewable.PaperShapes
	wait := start(o.Workers, func() { shapes = renewable.NewPaperShapes(o.Seed + 2) })
	server := dcmodel.Opteron()
	var workload *trace.Trace
	if o.MSR {
		workload = trace.MSRYear(o.Seed, 0.4)
	} else {
		workload = trace.FIUYear(o.Seed)
	}
	peak := o.PeakRPS
	if peak == 0 {
		peak = 0.5 * float64(o.N) * server.MaxRate()
	}
	workload = workload.ScaledToPeak(peak)

	sc := &sim.Scenario{
		Server: server, N: o.N, Gamma: 0.95, PUE: 1, Beta: o.Beta,
		Workload: workload,
		Price:    price.CAISOYear(o.Seed + 1),
		Slots:    o.Slots,
	}
	// Phase 1: unaware reference with no renewables.
	sc.Portfolio = &renewable.Portfolio{
		OnsiteKW:   trace.Constant("zero", 0, o.Slots),
		OffsiteKWh: trace.Constant("zero", 0, o.Slots),
		RECsKWh:    1, // placeholder, α·Z/J must be finite
		Alpha:      1,
	}
	ref, err := reference(sc, o.Workers)
	wait()
	if err != nil {
		return nil, 0, fmt.Errorf("simtest: reference run: %w", err)
	}
	// Phase 2: scale on-site renewables to OnsiteFrac of the unaware
	// consumption and re-run the unaware reference with them in place —
	// the paper's budget is a fraction of the carbon-unaware algorithm's
	// *electricity* (grid) usage in the actual environment.
	p := shapes.Portfolio(o.Slots, ref.ConsumptionKWh, o.OnsiteFrac, o.BudgetFrac, 0.40)
	sc.Portfolio = p
	refOnsite, err := reference(sc, o.Workers)
	if err != nil {
		return nil, 0, fmt.Errorf("simtest: onsite reference run: %w", err)
	}
	ref.GridKWh = refOnsite.GridKWh
	// Phase 3: size the budget — 40% off-site PPAs, 60% RECs.
	renewable.ScaleToTotal(p.OffsiteKWh, o.Slots, 0.40*o.BudgetFrac*ref.GridKWh)
	p.RECsKWh = 0.60 * o.BudgetFrac * ref.GridKWh
	if err := sc.Validate(); err != nil {
		return nil, 0, err
	}
	return sc, ref.GridKWh, nil
}

// start runs job on a goroutine of its own when workers > 1 and returns a
// function that waits for it; at one worker it runs job before returning,
// so a sequential build starts no goroutine.
func start(workers int, job func()) (wait func()) {
	if workers <= 1 {
		job()
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		job()
	}()
	return func() { <-done }
}

// ReferenceUsage is the unaware algorithm's measured usage.
type ReferenceUsage struct {
	ConsumptionKWh float64 // total facility energy
	GridKWh        float64 // total grid draw [p − r]^+
	AvgCostUSD     float64 // average hourly cost
}

// Reference runs the carbon-unaware algorithm on the scenario as-is and
// reports its usage. It is defined here (not in baseline) to avoid an
// import cycle in tests; it restates the unaware decision rule through
// the public sim API.
func Reference(sc *sim.Scenario) (ReferenceUsage, error) {
	return reference(sc, 1)
}

// reference is Reference with the decisions fanned out over up to workers
// goroutines. The unaware rule is stateless (a slot's decision reads only
// its observation), so the slots are decided in index-ordered chunks and
// then charged in slot order by a summary run that replays them. The usage
// is bit-identical at any worker count, and a failed decision surfaces as
// the engine's error at the lowest failing slot.
func reference(sc *sim.Scenario, workers int) (ReferenceUsage, error) {
	// Observe indexes the traces, so the scenario is checked first.
	if err := sc.Validate(); err != nil {
		return ReferenceUsage{}, err
	}
	chunks := max(1, min(workers, sc.Slots))
	r := &replay{cfgs: make([]sim.Config, sc.Slots), failAt: -1}
	// Each chunk stops at its first failure, so the first chunk that
	// failed holds the lowest failing slot.
	type failure struct {
		slot int
		err  error
	}
	fails := make([]failure, chunks)
	workpool.Fan(chunks, chunks, func(c int) {
		for t := c * sc.Slots / chunks; t < (c+1)*sc.Slots/chunks; t++ {
			cfg, err := unaware(sc, sc.Observe(t))
			if err != nil {
				fails[c] = failure{t, err}
				return
			}
			r.cfgs[t] = cfg
		}
	})
	for _, f := range fails {
		if f.err != nil {
			r.failAt, r.err = f.slot, f.err
			break
		}
	}
	sum, err := sim.RunSummary(sc, r)
	if err != nil {
		return ReferenceUsage{}, err
	}
	return ReferenceUsage{
		ConsumptionKWh: sum.TotalEnergyKWh,
		GridKWh:        sum.TotalGridKWh,
		AvgCostUSD:     sum.AvgHourlyCostUSD,
	}, nil
}

// unaware is the instantaneous cost minimizer: baseline.Unaware's
// decision, the scenario's P3 at V = 1 and q = 0, restated locally to keep
// simtest free of the packages it serves.
func unaware(sc *sim.Scenario, obs sim.Observation) (sim.Config, error) {
	hp := sc.P3At(obs, 1, 0)
	sol, err := hp.Solve()
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{Speed: sol.Speed, Active: sol.Active}, nil
}

// replay is the unaware policy with its decisions made ahead: it returns
// slot t's config, or at slot failAt the error that decision failed with.
type replay struct {
	cfgs   []sim.Config
	failAt int
	err    error
}

func (r *replay) Name() string { return "unaware-lite" }

func (r *replay) Decide(obs sim.Observation) (sim.Config, error) {
	if obs.Slot == r.failAt {
		return sim.Config{}, r.err
	}
	return r.cfgs[obs.Slot], nil
}

func (r *replay) Observe(sim.Feedback) {}
