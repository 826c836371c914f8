package baseline

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/lyapunov"
	"repro/internal/numopt"
	"repro/internal/sim"
	"repro/internal/simtest"
)

func buildScenario(t *testing.T, slots int) (*sim.Scenario, float64) {
	t.Helper()
	sc, refGrid, err := simtest.Build(simtest.Options{Slots: slots, N: 500})
	if err != nil {
		t.Fatal(err)
	}
	return sc, refGrid
}

func runPolicy(t *testing.T, sc *sim.Scenario, p sim.Policy) sim.Summary {
	t.Helper()
	res, err := sim.Run(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Summarize(sc, res)
}

func TestUnawareMatchesReference(t *testing.T) {
	sc, refGrid := buildScenario(t, 14*24)
	s := runPolicy(t, sc, NewUnaware(sc))
	if math.Abs(s.TotalGridKWh-refGrid) > 1e-6*refGrid {
		t.Errorf("unaware grid %v != calibration reference %v", s.TotalGridKWh, refGrid)
	}
	// Budget is 92% of the unaware usage, so unaware must overshoot by 1/0.92.
	if math.Abs(s.BudgetUsedFraction-1/0.92) > 0.01 {
		t.Errorf("unaware budget fraction = %v, want ≈ %v", s.BudgetUsedFraction, 1/0.92)
	}
}

func TestOPTMeetsBudgetExactly(t *testing.T) {
	sc, _ := buildScenario(t, 14*24)
	opt, err := NewOPT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Exact {
		t.Fatal("OPT saturated unexpectedly")
	}
	s := runPolicy(t, sc, opt)
	if s.BudgetUsedFraction > 1.0+1e-9 {
		t.Errorf("OPT violates budget: %v", s.BudgetUsedFraction)
	}
	if s.BudgetUsedFraction < 0.97 {
		t.Errorf("OPT leaves budget unused: %v (complementary slackness)", s.BudgetUsedFraction)
	}
	if opt.Eta() <= 0 {
		t.Errorf("binding budget needs positive dual price, got %v", opt.Eta())
	}
}

func TestOPTZeroEtaWhenBudgetSlack(t *testing.T) {
	sc, _ := buildScenario(t, 7*24)
	// Inflate RECs so the unaware optimum fits inside the budget.
	sc.Portfolio.RECsKWh *= 100
	opt, err := NewOPT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Eta() != 0 {
		t.Errorf("slack budget: eta = %v, want 0", opt.Eta())
	}
	s := runPolicy(t, sc, opt)
	un := runPolicy(t, sc, NewUnaware(sc))
	if math.Abs(s.AvgHourlyCostUSD-un.AvgHourlyCostUSD) > 1e-9 {
		t.Error("with slack budget OPT must equal the unaware optimum")
	}
}

func TestOPTBeatsEveryNeutralPolicy(t *testing.T) {
	// OPT's cost is a lower bound for any policy meeting the budget.
	sc, _ := buildScenario(t, 14*24)
	opt, err := NewOPT(sc)
	if err != nil {
		t.Fatal(err)
	}
	sOpt := runPolicy(t, sc, opt)
	// COCA tuned to meet the budget.
	for _, v := range []float64{1e4, 1e5, 1e6} {
		p, err := core.New(core.FromScenario(sc, lyapunov.ConstantV(v, 1, sc.Slots)))
		if err != nil {
			t.Fatal(err)
		}
		s := runPolicy(t, sc, p)
		if s.BudgetUsedFraction <= 1.0 && s.AvgHourlyCostUSD < sOpt.AvgHourlyCostUSD*(1-1e-6) {
			t.Errorf("V=%v: neutral COCA (%v) beat OPT (%v)", v, s.AvgHourlyCostUSD, sOpt.AvgHourlyCostUSD)
		}
	}
	php, err := NewPerfectHP(sc, 48)
	if err != nil {
		t.Fatal(err)
	}
	sPhp := runPolicy(t, sc, php)
	if sPhp.BudgetUsedFraction <= 1.0 && sPhp.AvgHourlyCostUSD < sOpt.AvgHourlyCostUSD*(1-1e-6) {
		t.Errorf("neutral PerfectHP (%v) beat OPT (%v)", sPhp.AvgHourlyCostUSD, sOpt.AvgHourlyCostUSD)
	}
}

func TestPerfectHPRespectsCapsWhenFeasible(t *testing.T) {
	sc, _ := buildScenario(t, 4*48)
	php, err := NewPerfectHP(sc, 48)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sc, php)
	if err != nil {
		t.Fatal(err)
	}
	violations := 0
	for t_, rec := range res.Records {
		cap := php.Budget(t_)
		if rec.GridKWh > cap*(1+1e-6)+1e-9 {
			// Permitted only when the cap was infeasible: verify that even
			// the most electricity-averse decision exceeds the cap.
			if php.s.gridAt(php.s.trueObs(t_), etaCap) <= cap {
				violations++
			}
		}
	}
	if violations > 0 {
		t.Errorf("%d slots violated a feasible hourly cap", violations)
	}
}

func TestPerfectHPBudgetAllocationProportional(t *testing.T) {
	sc, _ := buildScenario(t, 96)
	php, err := NewPerfectHP(sc, 48)
	if err != nil {
		t.Fatal(err)
	}
	// Within a frame, caps are proportional to workloads.
	l0, l1 := sc.Workload.Values[10], sc.Workload.Values[20]
	b0, b1 := php.Budget(10), php.Budget(20)
	if l0 > 0 && l1 > 0 {
		r1 := b0 / l0
		r2 := b1 / l1
		if math.Abs(r1-r2) > 1e-9*(r1+r2) {
			t.Errorf("allocation not λ-proportional: %v vs %v", r1, r2)
		}
	}
	// Frame budgets sum to the frame's offsite + REC share.
	var sum float64
	for t_ := 0; t_ < 48; t_++ {
		sum += php.Budget(t_)
	}
	want := sc.Portfolio.Alpha * (sumRange(sc.Portfolio.OffsiteKWh.Values, 0, 48) + sc.Portfolio.RECsKWh/2)
	if math.Abs(sum-want) > 1e-6*want {
		t.Errorf("frame budget sum = %v, want %v", sum, want)
	}
}

func sumRange(xs []float64, lo, hi int) float64 {
	var s float64
	for _, x := range xs[lo:hi] {
		s += x
	}
	return s
}

func TestPerfectHPValidation(t *testing.T) {
	sc, _ := buildScenario(t, 48)
	if _, err := NewPerfectHP(sc, 0); err == nil {
		t.Error("zero frame accepted")
	}
}

func TestLookaheadFramesAndOptima(t *testing.T) {
	sc, _ := buildScenario(t, 8*24)
	la, err := NewLookahead(sc, 48)
	if err != nil {
		t.Fatal(err)
	}
	opt := la.FrameOptima()
	if len(opt) != 4 {
		t.Fatalf("frames = %d, want 4", len(opt))
	}
	for i, g := range opt {
		if g <= 0 || math.IsInf(g, 0) {
			t.Errorf("G*_%d = %v", i, g)
		}
	}
	s := runPolicy(t, sc, la)
	if s.BudgetUsedFraction > 1.02 {
		t.Errorf("lookahead budget fraction = %v", s.BudgetUsedFraction)
	}
	// T must divide the horizon.
	if _, err := NewLookahead(sc, 100); err == nil {
		t.Error("non-dividing T accepted")
	}
}

func TestLookaheadLongerWindowNoWorse(t *testing.T) {
	// A longer lookahead window is a weaker constraint set, so the total
	// planned cost cannot increase.
	sc, _ := buildScenario(t, 8*24)
	short, err := NewLookahead(sc, 24)
	if err != nil {
		t.Fatal(err)
	}
	long, err := NewLookahead(sc, 96)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if avg(long.FrameOptima()) > avg(short.FrameOptima())*(1+1e-6) {
		t.Errorf("T=96 average optimum %v worse than T=24 %v",
			avg(long.FrameOptima()), avg(short.FrameOptima()))
	}
}

func TestTheorem2CostBoundHolds(t *testing.T) {
	// Empirical check of Theorem 2. (b), Eq. (20): COCA's average cost is
	// bounded by the T-lookahead optimum plus C(T)/V. At T = J the optimum
	// is OPT's one frame, and a V sweep checks the O(1/V) gap:
	// gap·V ≤ C(J). The logged tightness is gap·V/C(T), negative where
	// COCA overspends the budget and so costs less than the optimum.
	// (a), Eq. (19): COCA's average per-slot budget overrun is at most
	// lyapunov.DeficitBound. Its gMin is the least slot cost of the
	// carbon-unaware run, which minimizes each slot's cost; a larger gMin
	// only shrinks the bound. The logged ratio is the overrun over it.
	sc, _ := buildScenario(t, 6*24)
	la, err := NewLookahead(sc, 48)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOPT(sc)
	if err != nil {
		t.Fatal(err)
	}
	bounds := lyapunov.Bounds{
		YMax: float64(sc.N) * sc.Server.MaxBusyKW() * sc.PUE,
		ZMax: sc.Portfolio.Alpha*maxOf(sc.Portfolio.OffsiteKWh.Values[:sc.Slots]) + sc.Portfolio.RECPerSlotKWh(sc.Slots),
		RMax: maxOf(sc.Portfolio.OnsiteKW.Values[:sc.Slots]),
	}
	unaware, err := sim.Run(sc, NewUnaware(sc))
	if err != nil {
		t.Fatal(err)
	}
	gMin := math.Inf(1)
	for _, rec := range unaware.Records {
		gMin = math.Min(gMin, rec.TotalUSD)
	}
	cases := []struct {
		T      int
		optima []float64
		vs     []float64
	}{
		{48, la.FrameOptima(), []float64{1e5}},
		{sc.Slots, opt.FrameOptima(), []float64{1e2, 1e3, 1e4, 1e5, 1e6, 1e7}},
	}
	for _, c := range cases {
		var gStar float64
		for _, g := range c.optima {
			gStar += g / float64(len(c.optima))
		}
		for _, v := range c.vs {
			sched := lyapunov.ConstantV(v, sc.Slots/c.T, c.T)
			p, err := core.New(core.FromScenario(sc, sched))
			if err != nil {
				t.Fatal(err)
			}
			s := runPolicy(t, sc, p)
			bound := lyapunov.CostBound(bounds, sched, c.optima)
			deficitBound := lyapunov.DeficitBound(bounds, sched, c.optima, gMin)
			t.Logf("T = %d, V = %.0e: cost %.6g, G* %.6g, bound %.6g, gap·V/C(T) = %.3g, deficit/bound = %.3g",
				c.T, v, s.AvgHourlyCostUSD, gStar, bound, (s.AvgHourlyCostUSD-gStar)*v/bounds.C(c.T),
				s.AvgDeficitKWh/deficitBound)
			if s.AvgHourlyCostUSD > bound {
				t.Errorf("T = %d, V = %v: Theorem 2(b) violated: COCA %v > bound %v", c.T, v, s.AvgHourlyCostUSD, bound)
			}
			if s.AvgDeficitKWh > deficitBound {
				t.Errorf("T = %d, V = %v: Theorem 2(a) violated: average deficit %v > bound %v",
					c.T, v, s.AvgDeficitKWh, deficitBound)
			}
		}
	}
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// TestUnmeetableBudgetSaturatesAtEtaCap: with α = 1e-9 no η meets any
// budget, so OPT and every Lookahead frame stop at η = etaCap and report
// not exact, by the one saturation rule of dualSearch.price. It also
// checks that OPT is the one-frame Lookahead on the pinned 8-day scenario.
func TestUnmeetableBudgetSaturatesAtEtaCap(t *testing.T) {
	sc, _ := buildScenario(t, 8*24)
	opt, err := NewOPT(sc)
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewLookahead(sc, sc.Slots)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(opt.Eta()) != math.Float64bits(one.etas[0]) {
		t.Errorf("OPT η = %v, one-frame Lookahead η = %v", opt.Eta(), one.etas[0])
	}

	sc.Portfolio.Alpha = 1e-9
	opt, err = NewOPT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Eta() != etaCap || opt.Exact {
		t.Errorf("OPT: η = %v, exact = %v; want η = %v, not exact", opt.Eta(), opt.Exact, float64(etaCap))
	}
	la, err := NewLookahead(sc, 48)
	if err != nil {
		t.Fatal(err)
	}
	for f, eta := range la.etas {
		if eta != etaCap || la.exact[f] {
			t.Errorf("frame %d: η = %v, exact = %v; want η = %v, not exact", f, eta, la.exact[f], float64(etaCap))
		}
	}
}

// refFrameEta is a verbatim copy of NewLookahead's per-frame dual search
// before the baselines shared one: bracket, bisection from the bracket's
// values, ×1.02 round-up.
func refFrameEta(total func(float64) float64, budget float64) float64 {
	eta := 0.0
	if g0 := total(0); g0 > budget {
		hiEta := 1.0
		gHi := total(hiEta)
		for gHi > budget && hiEta < etaCap {
			hiEta *= 4
			gHi = total(hiEta)
		}
		eta = numopt.BisectMonotoneFrom(total, budget, 0, hiEta, g0, gHi, hiEta*1e-7, 50)
		for i := 0; i < 20 && total(eta) > budget; i++ {
			eta *= 1.02
		}
	}
	return eta
}

// FuzzDualPrice checks the shared search against refFrameEta on random
// non-increasing step functions of η whose floor is reached by η = 4¹²,
// the bracket's top, with a budget at or above that floor: the η bits must
// agree and the search must report the budget met.
func FuzzDualPrice(f *testing.F) {
	f.Add(uint64(1), uint8(1), 0.5)
	f.Add(uint64(2), uint8(8), 0.0)
	f.Add(uint64(3), uint8(40), 0.999)
	f.Add(uint64(4), uint8(3), 1.5)
	f.Fuzz(func(t *testing.T, seed uint64, steps uint8, frac float64) {
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, uint64(steps)))
		n := 1 + int(steps)%64
		// Breakpoints log-uniform in [1e-9, 4¹²), levels falling from the
		// top by non-negative steps (equal levels allowed).
		at := make([]float64, n)
		level := make([]float64, n+1)
		level[0] = 1 + rng.Float64()*1e6
		for i := range at {
			at[i] = 1e-9 * math.Pow((1<<24)/1e-9, rng.Float64())
			level[i+1] = level[i] * rng.Float64()
		}
		slices.Sort(at)
		grid := func(eta float64) float64 {
			i, _ := slices.BinarySearch(at, eta)
			for i < n && at[i] == eta {
				i++
			}
			return level[i]
		}
		// frac in [0, 1) spans [floor, top); larger fracs make slack budgets.
		frac = math.Abs(frac)
		budget := level[n] + (level[0]-level[n])*frac
		got, exact := frameSearch.price(grid, grid(0), budget)
		if want := refFrameEta(grid, budget); math.Float64bits(got) != math.Float64bits(want) || !exact {
			t.Fatalf("price = %v (exact %v), reference = %v; budget %v, breakpoints %v, levels %v",
				got, exact, want, budget, at, level)
		}
	})
}
