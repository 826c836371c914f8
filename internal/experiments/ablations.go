package experiments

import (
	"math"

	"repro/internal/baseline"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/dcmodel"
	"repro/internal/lyapunov"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// This file holds the studies beyond the paper's figures: the §2.2 energy-
// capping variant, the §2.1 nonlinear-tariff extension, the T-lookahead
// window sweep behind Theorem 2, an ablation of the frame-reset mechanism
// of Algorithm 1, and a green batch-scheduling study layered on §2.3's
// batch-queue isolation.

// CappingResult is the §2.2 energy-capping study: no off-site renewables;
// the REC parameter Z acts as a hard long-term cap on grid usage.
type CappingResult struct {
	CapKWh       float64
	CocaUsage    float64 // grid usage / cap
	CocaCost     float64
	UnawareUsage float64
	UnawareCost  float64
	CostPremium  float64 // COCA cost / unaware cost
	CocaUnderCap bool
}

// Capping runs the energy-capping variant: the paper notes "all the
// analysis still applies by removing the off-site renewable energy from
// our model and taking the REC parameter Z as the desired total energy
// cap".
func Capping(cfg Config) (CappingResult, error) {
	if err := cfg.fill(); err != nil {
		return CappingResult{}, err
	}
	sc, _, err := simtest.Build(simtest.Options{
		Slots: cfg.Slots, N: cfg.N, PeakRPS: cfg.PeakRPS, Beta: cfg.Beta,
		BudgetFrac: cfg.Budget, OnsiteFrac: 0.20, Seed: cfg.Seed,
		CappingMode: true,
	})
	if err != nil {
		return CappingResult{}, err
	}
	var res CappingResult
	res.CapKWh = sc.Portfolio.BudgetKWh(sc.Slots)

	_, cocaSum, _, err := tuneV(sc, cfg.VGrid, cfg.workers(), cfg.pool())
	if err != nil {
		return res, err
	}
	res.CocaUsage = cocaSum.BudgetUsedFraction
	res.CocaCost = cocaSum.AvgHourlyCostUSD
	res.CocaUnderCap = cocaSum.BudgetUsedFraction <= 1

	unRes, err := sim.Run(sc, baseline.NewUnaware(sc))
	if err != nil {
		return res, err
	}
	unSum := sim.Summarize(sc, unRes)
	res.UnawareUsage = unSum.BudgetUsedFraction
	res.UnawareCost = unSum.AvgHourlyCostUSD
	res.CostPremium = res.CocaCost / res.UnawareCost

	if cfg.Out != nil {
		t := report.NewTable("Energy capping (§2.2 variant): Z as a hard usage cap",
			"policy", "grid/cap", "avg hourly cost ($)")
		t.AddRow("COCA (tuned V)", res.CocaUsage, res.CocaCost)
		t.AddRow("carbon-unaware", res.UnawareUsage, res.UnawareCost)
		if err := t.Render(cfg.Out); err != nil {
			return res, err
		}
		cfg.printf("COCA stays under the cap at a %.1f%% cost premium\n",
			100*(res.CostPremium-1))
	}
	return res, nil
}

// LookaheadPoint is one window size of the T-lookahead sweep.
type LookaheadPoint struct {
	T          int
	MeanFrameG float64 // mean per-frame optimum G_r*
	CostBound  float64 // Theorem 2(b) bound for COCA at the study's V
}

// LookaheadSweep quantifies the P2 benchmark family of §3.2: larger
// lookahead windows weaken the per-frame constraint, so the mean frame
// optimum is non-increasing in T, and with it the Theorem 2 cost bound
// tightens. It also reports COCA's measured cost against each bound.
func LookaheadSweep(cfg Config, windows []int) ([]LookaheadPoint, float64, error) {
	if err := cfg.fill(); err != nil {
		return nil, 0, err
	}
	if len(windows) == 0 {
		// Divisors of the 8760-hour year: 1 day, 2.5 days, 5 days, ~2 months.
		windows = []int{24, 60, 120, 1460}
	}
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		return nil, 0, err
	}
	v := midGrid(cfg.VGrid)
	bounds := lyapunov.Bounds{
		YMax: float64(sc.N) * sc.Server.MaxBusyKW() * sc.PUE,
		ZMax: sc.Portfolio.Alpha*stats.MaxOf(sc.Portfolio.OffsiteKWh.Values[:sc.Slots]) + sc.Portfolio.RECPerSlotKWh(sc.Slots),
		RMax: stats.MaxOf(sc.Portfolio.OnsiteKW.Values[:sc.Slots]),
	}
	valid := windows[:0:0]
	for _, T := range windows {
		if sc.Slots%T == 0 {
			valid = append(valid, T)
		}
	}
	// The window sizes are independent dual-bisection plans: fan out.
	out, err := mapIndexed(cfg.workers(), cfg.pool(), len(valid), func(i int) (LookaheadPoint, error) {
		T := valid[i]
		la, err := baseline.NewLookahead(sc, T)
		if err != nil {
			return LookaheadPoint{}, err
		}
		optima := la.FrameOptima()
		sched := lyapunov.ConstantV(v, sc.Slots/T, T)
		return LookaheadPoint{
			T:          T,
			MeanFrameG: stats.Mean(optima),
			CostBound:  lyapunov.CostBound(bounds, sched, optima),
		}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	// COCA's measured cost at the same V for reference.
	cocaSum, _, err := runCOCA(sc, v)
	if err != nil {
		return nil, 0, err
	}
	if cfg.Out != nil {
		t := report.NewTable("T-step lookahead sweep (P2, §3.2) and Theorem 2 bounds",
			"T (hours)", "mean G_r*", "Eq. (20) bound on COCA", "COCA measured")
		for _, p := range out {
			t.AddRow(p.T, p.MeanFrameG, p.CostBound, cocaSum.AvgHourlyCostUSD)
		}
		if err := t.Render(cfg.Out); err != nil {
			return nil, 0, err
		}
	}
	return out, cocaSum.AvgHourlyCostUSD, nil
}

// FrameResetResult compares Algorithm 1's per-frame queue reset against a
// never-reset variant under a time-varying V schedule.
type FrameResetResult struct {
	WithResets    sim.Summary
	WithoutResets sim.Summary
}

// FrameResetAblation isolates the role of Algorithm 1 lines 2–4: resetting
// the deficit queue at frame boundaries decouples frames so V can be
// retuned; without resets, deficit accumulated under an early small V
// keeps throttling later frames.
func FrameResetAblation(cfg Config) (FrameResetResult, error) {
	if err := cfg.fill(); err != nil {
		return FrameResetResult{}, err
	}
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		return FrameResetResult{}, err
	}
	if cfg.Slots%4 != 0 {
		return FrameResetResult{}, nil
	}
	mid := midGrid(cfg.VGrid)
	vs := []float64{mid / 100, mid, mid * 10, mid}

	var res FrameResetResult
	// The two arms are independent year-long runs: fan out.
	sums, err := mapIndexed(cfg.workers(), cfg.pool(), 2, func(i int) (sim.Summary, error) {
		if i == 0 {
			// Standard COCA: four frames, queue reset at each boundary.
			p1, err := core.New(core.FromScenario(sc, lyapunov.VSchedule{T: cfg.Slots / 4, Vs: vs}))
			if err != nil {
				return sim.Summary{}, err
			}
			r1, err := sim.Run(sc, p1)
			if err != nil {
				return sim.Summary{}, err
			}
			return sim.Summarize(sc, r1), nil
		}
		// Ablated: the same V trajectory applied per slot, but a single
		// frame — the queue never resets.
		p2, err := core.New(core.FromScenario(sc, lyapunov.VSchedule{T: cfg.Slots, Vs: []float64{1}}))
		if err != nil {
			return sim.Summary{}, err
		}
		ab := &vOverridePolicy{Policy: p2, vs: vs, frame: cfg.Slots / 4}
		r2, err := sim.Run(sc, ab)
		if err != nil {
			return sim.Summary{}, err
		}
		return sim.Summarize(sc, r2), nil
	})
	if err != nil {
		return res, err
	}
	res.WithResets, res.WithoutResets = sums[0], sums[1]

	if cfg.Out != nil {
		t := report.NewTable("Frame-reset ablation (Algorithm 1 lines 2–4), quarterly V",
			"variant", "avg hourly cost ($)", "grid/budget")
		t.AddRow("with per-frame resets", res.WithResets.AvgHourlyCostUSD, res.WithResets.BudgetUsedFraction)
		t.AddRow("never reset", res.WithoutResets.AvgHourlyCostUSD, res.WithoutResets.BudgetUsedFraction)
		if err := t.Render(cfg.Out); err != nil {
			return res, err
		}
	}
	return res, nil
}

// vOverridePolicy drives a single-frame COCA policy while swapping its V
// per quarter through the config — emulating "varying V without resets".
type vOverridePolicy struct {
	*core.Policy
	vs    []float64
	frame int
}

func (v *vOverridePolicy) Name() string { return "coca-no-reset" }

func (v *vOverridePolicy) Decide(obs sim.Observation) (sim.Config, error) {
	v.Policy.SetV(v.vs[obs.Slot/v.frame])
	return v.Policy.Decide(obs)
}

// TariffResult compares flat versus inclining-block electricity pricing.
type TariffResult struct {
	Flat   sim.Summary
	Tiered sim.Summary
	// PeakGridFlat/Tiered are the maximum hourly grid draws, which the
	// convex tariff should flatten.
	PeakGridFlat   float64
	PeakGridTiered float64
}

// TariffStudy exercises the §2.1 nonlinear-cost extension: an
// inclining-block tariff whose second block starts near the flat-run
// median draw. COCA internalizes the convex cost and shaves its peaks.
func TariffStudy(cfg Config) (TariffResult, error) {
	if err := cfg.fill(); err != nil {
		return TariffResult{}, err
	}
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		return TariffResult{}, err
	}
	v, flat, flatRun, err := tuneV(sc, cfg.VGrid, cfg.workers(), cfg.pool())
	if err != nil {
		return TariffResult{}, err
	}
	res := TariffResult{Flat: flat}
	res.PeakGridFlat = stats.MaxOf(flatRun.GridSeries())

	knee := stats.Quantile(flatRun.GridSeries(), 0.5)
	tariff, err := dcmodel.NewTieredTariff([]dcmodel.Tier{
		{UpToKWh: knee, Mult: 1},
		{UpToKWh: math.Inf(1), Mult: 3},
	})
	if err != nil {
		return res, err
	}
	tsc := sc.Clone()
	tsc.Tariff = tariff
	_, tieredRun, err := runCOCA(tsc, v)
	if err != nil {
		return res, err
	}
	res.Tiered = sim.Summarize(tsc, tieredRun)
	res.PeakGridTiered = stats.MaxOf(tieredRun.GridSeries())

	if cfg.Out != nil {
		t := report.NewTable("Nonlinear tariff study (§2.1 extension): inclining-block pricing",
			"tariff", "avg hourly cost ($)", "peak hourly grid (kWh)", "grid/budget")
		t.AddRow("flat", res.Flat.AvgHourlyCostUSD, res.PeakGridFlat, res.Flat.BudgetUsedFraction)
		t.AddRow("tiered 1x/3x", res.Tiered.AvgHourlyCostUSD, res.PeakGridTiered, res.Tiered.BudgetUsedFraction)
		if err := t.Render(cfg.Out); err != nil {
			return res, err
		}
	}
	return res, nil
}

// GreenBatchResult is the batch-scheduling study layered on a COCA run.
type GreenBatchResult struct {
	SpareServerHours float64 // total spare capacity COCA left on powered servers
	ServedHours      float64
	Completed        int
	Missed           int
	BatchEnergyKWh   float64
	CompletionRate   float64
}

// GreenBatch runs COCA for the interactive workload, then schedules a
// deferrable batch stream (EDF) into the spare cycles of the servers COCA
// already powered on — the §2.3 batch-queue isolation made concrete.
func GreenBatch(cfg Config) (GreenBatchResult, error) {
	if err := cfg.fill(); err != nil {
		return GreenBatchResult{}, err
	}
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		return GreenBatchResult{}, err
	}
	_, _, run, err := tuneV(sc, cfg.VGrid, cfg.workers(), cfg.pool())
	if err != nil {
		return GreenBatchResult{}, err
	}
	spare := batch.SpareServerHours(sc, run)
	var res GreenBatchResult
	res.SpareServerHours = stats.Sum(spare)

	// Size the batch stream to roughly a third of the spare capacity.
	meanSpare := res.SpareServerHours / float64(len(spare))
	sched := batch.NewScheduler()
	sched.SetTracer(cfg.Tracer)
	if cfg.Telemetry != nil {
		sched.Instrument(telemetry.NewBatchMetrics(cfg.Telemetry, "batch"))
	}
	jobs := batch.Workload(cfg.Seed+9, sc.Slots, 1, meanSpare/3, 4, 24)
	for _, j := range jobs {
		if err := sched.Submit(j); err != nil {
			return res, err
		}
	}
	for t := 0; t < sc.Slots; t++ {
		r := sched.Step(spare[t], sc.Server)
		res.BatchEnergyKWh += r.EnergyKWh
	}
	res.ServedHours, res.Completed, res.Missed = sched.Stats()
	if res.Completed+res.Missed > 0 {
		res.CompletionRate = float64(res.Completed) / float64(res.Completed+res.Missed)
	}

	if cfg.Out != nil {
		t := report.NewTable("Green batch scheduling on COCA's spare capacity (§2.3 isolation)",
			"metric", "value")
		t.AddRow("total spare capacity (server-hours)", res.SpareServerHours)
		t.AddRow("batch work served (server-hours)", res.ServedHours)
		t.AddRow("jobs completed", res.Completed)
		t.AddRow("jobs missed", res.Missed)
		t.AddRow("completion rate", res.CompletionRate)
		t.AddRow("batch computing energy (kWh)", res.BatchEnergyKWh)
		if err := t.Render(cfg.Out); err != nil {
			return res, err
		}
	}
	return res, nil
}
