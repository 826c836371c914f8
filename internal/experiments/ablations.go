package experiments

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lyapunov"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file holds the studies beyond the paper's figures that check its
// analysis: the T-lookahead window sweep behind Theorem 2 and an ablation
// of the frame-reset mechanism of Algorithm 1.

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
	cocaSum, err := summarizeCOCA(sc, v)
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
			return sim.RunSummary(sc, p1)
		}
		// Ablated: the same V trajectory applied per slot, but a single
		// frame — the queue never resets.
		p2, err := core.New(core.FromScenario(sc, lyapunov.VSchedule{T: cfg.Slots, Vs: []float64{1}}))
		if err != nil {
			return sim.Summary{}, err
		}
		ab := &vOverridePolicy{Policy: p2, vs: vs, frame: cfg.Slots / 4}
		return sim.RunSummary(sc, ab)
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
