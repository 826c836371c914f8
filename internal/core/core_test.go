package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/lyapunov"
	"repro/internal/p3"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/trace"
)

func buildScenario(t *testing.T, slots int) *sim.Scenario {
	t.Helper()
	sc, _, err := simtest.Build(simtest.Options{Slots: slots, N: 500})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runSchedule runs COCA under the schedule and summarizes the run.
func runSchedule(t *testing.T, sc *sim.Scenario, sched lyapunov.VSchedule) sim.Summary {
	t.Helper()
	p, err := New(FromScenario(sc, sched))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Summarize(sc, res)
}

func TestNewValidation(t *testing.T) {
	sc := buildScenario(t, 48)
	sched := lyapunov.ConstantV(100, 1, 48)
	if _, err := New(FromScenario(sc, sched)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*sim.Scenario)
	}{
		{"zero fleet", func(s *sim.Scenario) { s.N = 0 }},
		{"negative beta", func(s *sim.Scenario) { s.Beta = -1 }},
		{"gamma 0", func(s *sim.Scenario) { s.Gamma = 0 }},
		{"gamma 1", func(s *sim.Scenario) { s.Gamma = 1 }},
		{"gamma NaN", func(s *sim.Scenario) { s.Gamma = math.NaN() }}, // would switch the γ cap off
		{"pue<1", func(s *sim.Scenario) { s.PUE = 0.9 }},
		{"pue NaN", func(s *sim.Scenario) { s.PUE = math.NaN() }},
		{"pue +Inf", func(s *sim.Scenario) { s.PUE = math.Inf(1) }},
		{"beta NaN", func(s *sim.Scenario) { s.Beta = math.NaN() }},
	} {
		bad := sc.Clone()
		tc.mutate(bad)
		if _, err := New(FromScenario(bad, sched)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := New(FromScenario(sc, lyapunov.VSchedule{T: 0})); err == nil {
		t.Error("bad schedule accepted")
	}
	if _, err := New(FromScenario(nil, sched)); err == nil {
		t.Error("nil scenario accepted")
	}
	for _, tc := range badQueueParams {
		bad := sc.Clone()
		bad.Portfolio = sc.Portfolio.Clone()
		bad.Portfolio.Alpha, bad.Portfolio.RECsKWh = tc.alpha, tc.rec
		if _, err := New(FromScenario(bad, sched)); err == nil {
			t.Errorf("%s: alpha %v, REC allowance %v accepted", tc.name, tc.alpha, tc.rec)
		}
	}
}

// TestScheduleCoversHorizon: New refuses a schedule shorter than the
// scenario, and a Decide past the schedule returns ErrScheduleExhausted
// rather than indexing V out of range.
func TestScheduleCoversHorizon(t *testing.T) {
	sc := buildScenario(t, 72)
	if _, err := New(FromScenario(sc, lyapunov.ConstantV(100, 1, 48))); err == nil {
		t.Fatal("a 48-slot schedule accepted for a 72-slot scenario")
	}
	p, err := New(FromScenario(sc, lyapunov.ConstantV(100, 3, 24)))
	if err != nil {
		t.Fatal(err)
	}
	obs := sc.Observe(0)
	obs.Slot = sc.Slots
	if _, err := p.Decide(obs); !errors.Is(err, ErrScheduleExhausted) {
		t.Fatalf("Decide past the schedule = %v, want ErrScheduleExhausted", err)
	}
}

// TestConstructorsRejectBadBeta: both forms refuse a delay weight that is
// negative, NaN or infinite, which would make every P3 weight Wd invalid.
func TestConstructorsRejectBadBeta(t *testing.T) {
	sc := buildScenario(t, 24)
	sched := lyapunov.ConstantV(100, 1, 24)
	for _, beta := range []float64{-1, math.NaN(), math.Inf(1)} {
		bad := sc.Clone()
		bad.Beta = beta
		if _, err := New(FromScenario(bad, sched)); err == nil {
			t.Errorf("New accepted beta %v", beta)
		}
		if _, err := NewController(dcmodel.PaperCluster(2), beta, sched, 1, 1, p3Exact); err == nil {
			t.Errorf("NewController accepted beta %v", beta)
		}
	}
}

// badQueueParams are capping aggressiveness and REC allowance pairs the
// constructors must refuse with an error: α must be finite and positive,
// the allowance finite and non-negative.
var badQueueParams = []struct {
	name       string
	alpha, rec float64
}{
	{"alpha-zero", 0, 1},
	{"alpha-nan", math.NaN(), 1},
	{"alpha-inf", math.Inf(1), 1},
	{"rec-negative", 1, -1},
	{"rec-nan", 1, math.NaN()},
	{"rec-inf", 1, math.Inf(1)},
}

func TestCostDecreasesWithV(t *testing.T) {
	// Fig. 2(a): greater V → COCA cares more about cost, less about carbon.
	sc := buildScenario(t, 21*24)
	low := runSchedule(t, sc, lyapunov.ConstantV(100, 1, sc.Slots))
	high := runSchedule(t, sc, lyapunov.ConstantV(1e7, 1, sc.Slots))
	if high.AvgHourlyCostUSD >= low.AvgHourlyCostUSD {
		t.Errorf("cost did not decrease with V: %v → %v",
			low.AvgHourlyCostUSD, high.AvgHourlyCostUSD)
	}
	// Fig. 2(b): deficit (energy usage) grows with V.
	if high.TotalGridKWh <= low.TotalGridKWh {
		t.Errorf("grid usage did not grow with V: %v → %v",
			low.TotalGridKWh, high.TotalGridKWh)
	}
}

func TestQueueFeedbackThrottlesUsage(t *testing.T) {
	// With a moderate V the deficit queue must keep usage at or below the
	// V→∞ (carbon-unaware-like) usage.
	sc := buildScenario(t, 21*24)
	mod := runSchedule(t, sc, lyapunov.ConstantV(1e4, 1, sc.Slots))
	inf := runSchedule(t, sc, lyapunov.ConstantV(1e10, 1, sc.Slots))
	if mod.TotalGridKWh > inf.TotalGridKWh {
		t.Errorf("queue feedback increased usage: %v > %v",
			mod.TotalGridKWh, inf.TotalGridKWh)
	}
}

// queueTrace steps the policy over the scenario and records q(t) after
// each slot settles.
func queueTrace(t *testing.T, sc *sim.Scenario, p *Policy) []float64 {
	t.Helper()
	e, err := sim.NewEngine(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	var qs []float64
	for !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, p.Queue())
	}
	return qs
}

func TestFrameResetClearsQueue(t *testing.T) {
	sc := buildScenario(t, 48)
	sched := lyapunov.VSchedule{T: 24, Vs: []float64{100, 100}}
	p, err := New(FromScenario(sc, sched))
	if err != nil {
		t.Fatal(err)
	}
	qs := queueTrace(t, sc, p)
	if len(qs) != 48 {
		t.Fatalf("queue trace length %d", len(qs))
	}
	// Decide at slot 24 resets before solving; the queue value recorded at
	// slot 24 equals the first post-reset update, which must not exceed one
	// slot's worth of deficit.
	maxOneSlot := sc.Capacity() // generous bound: one slot of peak power kWh
	if qs[24] > maxOneSlot {
		t.Errorf("queue after frame reset = %v, too large", qs[24])
	}
}

func TestQueueTraceNonNegative(t *testing.T) {
	sc := buildScenario(t, 72)
	p, err := New(FromScenario(sc, lyapunov.ConstantV(500, 1, 72)))
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queueTrace(t, sc, p) {
		if q < 0 || math.IsNaN(q) {
			t.Fatalf("q[%d] = %v", i, q)
		}
	}
}

func TestVaryingVSchedule(t *testing.T) {
	// Fig. 2(c,d): quarterly V changes; verify the run completes and later
	// frames with bigger V spend more energy than the small-V opening frame.
	sc := buildScenario(t, 28*24)
	sched := lyapunov.VSchedule{T: 7 * 24, Vs: []float64{50, 5e4, 5e6, 5e4}}
	p, err := New(FromScenario(sc, sched))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	week := func(i int) float64 {
		var s float64
		for _, rec := range res.Records[i*7*24 : (i+1)*7*24] {
			s += rec.GridKWh
		}
		return s
	}
	if week(2) <= week(0)*0.9 {
		// Workload varies across weeks, so compare loosely: the V=5e6 week
		// should not use dramatically less than the V=50 week.
		t.Errorf("high-V week used %v vs low-V week %v", week(2), week(0))
	}
}

func TestSwitchingCostInternalized(t *testing.T) {
	sc := buildScenario(t, 10*24)
	sc.SwitchCostKWh = 0.0231 // 10% of a server's max hourly energy (Fig. 5d)
	pFree, err := New(FromScenario(sc, lyapunov.ConstantV(1e5, 1, sc.Slots)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sc, pFree)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.Summarize(sc, res)
	// Switching-aware COCA must not toggle the whole fleet every slot: the
	// switching share of cost must stay small (the paper reports < 5% total
	// increase at this setting).
	if s.AvgSwitchUSD > 0.1*s.AvgHourlyCostUSD {
		t.Errorf("switching cost share too high: %v of %v", s.AvgSwitchUSD, s.AvgHourlyCostUSD)
	}
}

// solverFunc adapts a function to the p3.Solver interface.
type solverFunc func(*dcmodel.SlotProblem) (dcmodel.Solution, error)

func (f solverFunc) Solve(p *dcmodel.SlotProblem) (dcmodel.Solution, error) { return f(p) }

// p3Exact is the exhaustive P3 oracle as a Solver.
var p3Exact = solverFunc(p3.Enumerate)

func TestControllerWithExactSolver(t *testing.T) {
	cluster := &dcmodel.Cluster{
		Groups: []dcmodel.Group{
			{Type: dcmodel.Opteron(), N: 30},
			{Type: dcmodel.Opteron(), N: 30},
		},
		Gamma: 0.95, PUE: 1,
	}
	sched := lyapunov.ConstantV(1e4, 1, 24)
	ctrl, err := NewController(cluster, 0.01, sched, 1, 1, p3Exact)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 24; tt++ {
		out, err := ctrl.Step(SlotEnv{
			LambdaRPS:      200 + 50*math.Sin(float64(tt)),
			OnsiteKW:       1,
			PriceUSDPerKWh: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.CheckConfig(out.Solution.Speeds, out.Solution.Load); err != nil {
			t.Fatalf("slot %d: %v", tt, err)
		}
		ctrl.Settle(out, 2)
	}
	if ctrl.Slot() != 24 {
		t.Errorf("slot counter = %d", ctrl.Slot())
	}
}

func TestControllerWithGSD(t *testing.T) {
	// The paper's full stack: COCA driving GSD on a heterogeneous cluster.
	cluster := dcmodel.HeterogeneousCluster(60, 6)
	sched := lyapunov.ConstantV(1e4, 1, 12)
	solver := &gsd.Solver{Opts: gsd.Options{Delta: 1e6, MaxIters: 400, Seed: 3}}
	ctrl, err := NewController(cluster, 0.01, sched, 1, 0.5, solver)
	if err != nil {
		t.Fatal(err)
	}
	wl := trace.FIUYear(7)
	for tt := 0; tt < 12; tt++ {
		out, err := ctrl.Step(SlotEnv{
			LambdaRPS:      wl.Values[tt] * 300,
			OnsiteKW:       0.5,
			PriceUSDPerKWh: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.CheckConfig(out.Solution.Speeds, out.Solution.Load); err != nil {
			t.Fatalf("slot %d: %v", tt, err)
		}
		if out.Cost.TotalUSD < 0 || math.IsInf(out.Cost.TotalUSD, 0) {
			t.Fatalf("slot %d: degenerate cost %v", tt, out.Cost.TotalUSD)
		}
		ctrl.Settle(out, 0.4)
	}
}

func TestControllerValidation(t *testing.T) {
	cluster := dcmodel.PaperCluster(2)
	sched := lyapunov.ConstantV(1, 1, 10)
	if _, err := NewController(cluster, 0.01, sched, 1, 1, nil); err == nil {
		t.Error("nil solver accepted")
	}
	bad := &dcmodel.Cluster{}
	if _, err := NewController(bad, 0.01, sched, 1, 1, p3Exact); err == nil {
		t.Error("bad cluster accepted")
	}
	for _, tc := range badQueueParams {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: NewController panicked: %v", tc.name, r)
				}
			}()
			if _, err := NewController(cluster, 0.01, sched, tc.alpha, tc.rec, p3Exact); err == nil {
				t.Errorf("%s: alpha %v, REC allowance %v accepted", tc.name, tc.alpha, tc.rec)
			}
		}()
	}
}

// TestControllerStepRejectsBadSlotExtensions checks that Step refuses a
// NaN, infinite or negative SlotHours or SwitchCostKWh before it solves,
// and that the refusal leaves the controller where it was: no slot
// advanced and no frame-start queue reset (the refused slot opens a frame).
func TestControllerStepRejectsBadSlotExtensions(t *testing.T) {
	env := SlotEnv{LambdaRPS: 150, OnsiteKW: 0.5, PriceUSDPerKWh: 0.05}
	for _, field := range []string{"SlotHours", "SwitchCostKWh"} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), -1} {
			ctrl, err := NewController(dcmodel.HeterogeneousCluster(60, 6), 0.01, lyapunov.ConstantV(1e4, 3, 2),
				1, 0.5, &gsd.Solver{Opts: gsd.Options{Delta: 1e6, MaxIters: 60, Seed: 3}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				out, err := ctrl.Step(env)
				if err != nil {
					t.Fatal(err)
				}
				ctrl.Settle(out, 0.1)
			}
			slot, queue := ctrl.Slot(), ctrl.Queue()
			if queue <= 0 {
				t.Fatalf("queue %v after two slots; the reset check needs a positive one", queue)
			}
			value := &ctrl.SlotHours
			if field == "SwitchCostKWh" {
				value = &ctrl.SwitchCostKWh
			}
			*value = bad
			if _, err := ctrl.Step(env); err == nil {
				t.Errorf("%s = %v accepted", field, bad)
			}
			if ctrl.Slot() != slot || math.Float64bits(ctrl.Queue()) != math.Float64bits(queue) {
				t.Errorf("%s = %v: Step moved the controller to slot %d, queue %v (was %d, %v)",
					field, bad, ctrl.Slot(), ctrl.Queue(), slot, queue)
			}
			*value = 0
			if _, err := ctrl.Step(env); err != nil {
				t.Errorf("%s restored to 0: %v", field, err)
			}
		}
	}
}

func TestSetVOverride(t *testing.T) {
	sc := buildScenario(t, 48)
	p, err := New(FromScenario(sc, lyapunov.ConstantV(10, 1, 48)))
	if err != nil {
		t.Fatal(err)
	}
	obs := sc.Observe(0)
	low, err := p.Decide(obs)
	if err != nil {
		t.Fatal(err)
	}
	p.SetV(1e9)
	high, err := p.Decide(obs)
	if err != nil {
		t.Fatal(err)
	}
	// A vastly larger V weights delay more heavily relative to energy, so
	// the chosen capacity cannot shrink.
	if high.Active < low.Active {
		t.Errorf("V override ignored: active %d -> %d", low.Active, high.Active)
	}
	p.SetV(0) // restore
	back, err := p.Decide(obs)
	if err != nil {
		t.Fatal(err)
	}
	if back.Active != low.Active || back.Speed != low.Speed {
		t.Errorf("restoring the schedule changed the decision: %+v vs %+v", back, low)
	}
}
