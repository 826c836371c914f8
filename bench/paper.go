package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lyapunov"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

// paperConfig sizes the paper-reproduction workload.
type paperConfig struct {
	golden    string             // golden.json key; empty skips the golden check
	base      experiments.Config // zero Slots and N select the paper scale
	minPasses int                // timed Fig2+Fig3 passes at least
}

func paperYear() paperConfig { return paperConfig{golden: "paper-year", minPasses: 2} }

// paperPass is one Fig. 2 plus Fig. 3 evaluation.
type paperPass struct {
	fig2 experiments.Fig2Result
	fig3 experiments.Fig3Result
}

func runPaperPass(cfg experiments.Config) (paperPass, error) {
	f2, err := experiments.Fig2(cfg)
	if err != nil {
		return paperPass{}, fmt.Errorf("fig2: %w", err)
	}
	f3, err := experiments.Fig3(cfg)
	if err != nil {
		return paperPass{}, fmt.Errorf("fig3: %w", err)
	}
	return paperPass{fig2: f2, fig3: f3}, nil
}

// slots counts the simulated slots of a pass: Fig. 2 runs the V grid, the
// carbon-unaware reference and (at a horizon divisible by 4) the quarterly
// schedule; Fig. 3 tunes V over the same grid, then runs COCA and
// PerfectHP head to head.
func (p paperPass) slots() int {
	runs := 2*len(p.fig2.Sweep) + 1 + 2
	if len(p.fig2.VaryingVs) > 0 {
		runs++
	}
	return runs * p.fig3.Coca.Slots
}

// digest hashes the Fig. 2 and Fig. 3 rows.
func (p paperPass) digest() string {
	h := newFNV()
	for _, pt := range p.fig2.Sweep {
		h.floats(pt.V, pt.AvgCostUSD, pt.AvgDeficitKWh, pt.BudgetUsed)
	}
	h.floats(p.fig2.UnawareAvgCostUSD)
	h.floats(p.fig2.VaryingVs...)
	h.floats(p.fig2.MovingAvgCost...)
	h.floats(p.fig2.MovingAvgDeficit...)
	h.floats(p.fig3.CocaV, p.fig3.SavingFrac)
	for _, s := range []sim.Summary{p.fig3.Coca, p.fig3.PerfectHP} {
		h.floats(s.AvgHourlyCostUSD, s.AvgElectricityUSD, s.AvgDelayUSD, s.AvgSwitchUSD,
			s.TotalGridKWh, s.TotalEnergyKWh, s.AvgDeficitKWh, s.BudgetUsedFraction)
	}
	return h.String()
}

// finite reports whether every cost and deficit of the pass is finite.
func (p paperPass) finite() bool {
	var vs []float64
	for _, pt := range p.fig2.Sweep {
		vs = append(vs, pt.AvgCostUSD, pt.AvgDeficitKWh, pt.BudgetUsed)
	}
	vs = append(vs, p.fig2.UnawareAvgCostUSD, p.fig3.SavingFrac)
	for _, s := range []sim.Summary{p.fig3.Coca, p.fig3.PerfectHP} {
		vs = append(vs, s.AvgHourlyCostUSD, s.TotalGridKWh, s.AvgDeficitKWh, s.BudgetUsedFraction)
	}
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// runPaper runs paper-year: timed Fig. 2 + Fig. 3 passes, and in a traced
// run the pool metrics of a pass plus the span table of one COCA year at
// the tuned V.
func runPaper(o options, pc paperConfig) (*report, error) {
	r := newReport()
	cfg := pc.base
	cfg.Seed = o.seed
	cfg.Workers = benchWorkers
	var reg *telemetry.Registry
	setups := o.setups
	if o.trace {
		reg, setups = telemetry.NewRegistry(), 1
		cfg.Telemetry = reg
	}
	// Every pass builds its own scenario, so the set-up that can be timed
	// on its own is the calibrated scenario build; the median of the timed
	// passes absorbs the cold first pass.
	_, setupS, err := medianSetup(setups, func() (struct{}, func(), error) {
		_, _, err := cfg.Scenario(false)
		return struct{}{}, nil, err
	})
	if err != nil {
		return nil, err
	}

	var before telemetry.Snapshot
	if reg != nil {
		before = reg.Snapshot()
	}
	var (
		last  paperPass
		first string
	)
	rt0 := readRuntime()
	secs, wall, err := timedLoop(o.duration(), pc.minPasses, func() (time.Duration, error) {
		start := time.Now()
		p, err := runPaperPass(cfg)
		if err != nil {
			return 0, err
		}
		dt := time.Since(start)
		if first == "" {
			first = p.digest()
		}
		r.check(p.digest() == first, "pass results differ: %s vs %s", p.digest(), first)
		last = p
		return dt, nil
	})
	r.attempted += len(secs)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	heap := liveHeapMB()
	r.check(last.finite(), "a Fig. 2 or Fig. 3 cost is not finite")
	r.check(last.fig3.Coca.BudgetUsedFraction <= 1, "tuned V=%g uses %.4f of the carbon budget",
		last.fig3.CocaV, last.fig3.Coca.BudgetUsedFraction)
	r.checkGolden(o, pc.golden, first)

	passMS := median(secs)
	if !o.trace {
		r.set("setup_s", setupS)
		r.set("slots_per_s", float64(last.slots())/(passMS/1e3))
		r.set("live_heap_mb", heap)
		r.notef("paper_eval_s %.4f s (median of %d passes, %d slots each)", passMS/1e3, len(secs), last.slots())
		return r, nil
	}

	after := reg.Snapshot()
	jobSecs := after.Histograms["pool.job_seconds"].Sum - before.Histograms["pool.job_seconds"].Sum
	jobs := after.Counters["pool.jobs_done"] - before.Counters["pool.jobs_done"]
	r.set("experiments.busy_frac", ratio(jobSecs, wall.Seconds()*benchWorkers))
	r.set("experiments.jobs", jobs/float64(len(secs)))
	r.set("runtime.gc_cpu_frac", gcFrac(rt0, rt1))

	// One COCA year at the tuned V, untraced and then traced.
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		return nil, err
	}
	year := func(tr *span.Tracer) (time.Duration, *sim.Result, error) {
		p, err := core.New(core.FromScenario(sc, lyapunov.ConstantV(last.fig3.CocaV, 1, sc.Slots)))
		if err != nil {
			return 0, nil, err
		}
		start := time.Now()
		res, err := sim.RunTraced(sc, p, tr)
		return time.Since(start), res, err
	}
	bareWall, bare, err := year(nil)
	if err != nil {
		return nil, err
	}
	tr := span.NewTracer()
	tracedWall, traced, err := year(tr)
	if err != nil {
		return nil, err
	}
	r.attempted += 2
	r.check(sim.Summarize(sc, traced) == sim.Summarize(sc, bare), "traced COCA year diverged from the untraced one")
	folded, err := foldTracer(tr)
	if err != nil {
		return nil, err
	}
	r.set("telemetry.trace_overhead_frac", tracedWall.Seconds()/bareWall.Seconds()-1)
	r.set("sim.decide_us", folded["sim.decide"].meanUS())
	r.set("sim.operate_us", folded["sim.operate"].meanUS())
	r.set("sim.observe_us", folded["sim.observe"].meanUS())
	r.set("sim.slot_self_us", folded["sim.slot"].meanSelfUS())
	return r, nil
}
