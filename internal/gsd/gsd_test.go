package gsd

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/p3"
)

func smallProblem(nGroups int, lambda float64) *dcmodel.SlotProblem {
	groups := make([]dcmodel.Group, nGroups)
	for i := range groups {
		groups[i] = dcmodel.Group{Type: dcmodel.Opteron(), N: 5}
	}
	c := &dcmodel.Cluster{Groups: groups, Gamma: 0.95, PUE: 1}
	return &dcmodel.SlotProblem{
		Cluster:   c,
		LambdaRPS: lambda,
		We:        0.08,
		Wd:        0.01,
		OnsiteKW:  0.5,
	}
}

func TestSolveProducesFeasibleSolution(t *testing.T) {
	p := smallProblem(4, 60)
	res, err := Solve(p, Options{Delta: 1e4, MaxIters: 600, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Cluster.CheckConfig(res.Solution.Speeds, res.Solution.Load); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	var sum float64
	for _, l := range res.Solution.Load {
		sum += l
	}
	if math.Abs(sum-60) > 1e-3 {
		t.Errorf("Σload = %v, want 60", sum)
	}
}

// TestSolveRejectsNonFiniteScalars pins that a NaN weight or on-site
// supply is an error, not a chain over NaN objectives.
func TestSolveRejectsNonFiniteScalars(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		edit func(*dcmodel.SlotProblem)
	}{
		{"We NaN", func(p *dcmodel.SlotProblem) { p.We = nan }},
		{"Wd NaN", func(p *dcmodel.SlotProblem) { p.Wd = nan }},
		{"OnsiteKW NaN", func(p *dcmodel.SlotProblem) { p.OnsiteKW = nan }},
		{"OnsiteKW +Inf", func(p *dcmodel.SlotProblem) { p.OnsiteKW = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := smallProblem(4, 60)
			tc.edit(p)
			if res, err := Solve(p, Options{Delta: 1e4, MaxIters: 100, Seed: 1}); err == nil {
				t.Errorf("Solve returned Value %v with a nil error", res.Solution.Value)
			}
		})
	}
}

func TestSolveDeterministicWithSeed(t *testing.T) {
	p := smallProblem(3, 40)
	a, err := Solve(p, Options{Delta: 1e4, MaxIters: 300, Seed: 7, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(p, Options{Delta: 1e4, MaxIters: 300, Seed: 7, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Solution.Value != b.Solution.Value || a.Stats.Accepted != b.Stats.Accepted {
		t.Error("same seed gave different runs")
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("histories diverge at %d", i)
		}
	}
}

func TestSolveReachesEnumerateOptimum(t *testing.T) {
	// Theorem 1 (high-δ limit): GSD with a large temperature and enough
	// iterations should land on the exhaustive optimum.
	for _, lambda := range []float64{10, 45, 90} {
		p := smallProblem(3, lambda)
		exact, err := p3.Enumerate(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(p, Options{Delta: 1e6, MaxIters: 3000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Solution.Value > exact.Value*(1+5e-3)+1e-9 {
			t.Errorf("λ=%v: GSD %v vs optimum %v", lambda, res.Solution.Value, exact.Value)
		}
	}
}

func TestHigherDeltaConcentratesOnOptimum(t *testing.T) {
	// Theorem 1 (monotonicity): the probability of ending at the optimum
	// grows with δ. Estimate over many short seeded runs.
	p := smallProblem(2, 30)
	exact, err := p3.Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	hitRate := func(delta float64) float64 {
		hits := 0
		const trials = 40
		for s := 0; s < trials; s++ {
			res, err := Solve(p, Options{Delta: delta, MaxIters: 150, Seed: uint64(1000 + s)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Solution.Value <= exact.Value*(1+1e-6) {
				hits++
			}
		}
		return float64(hits) / trials
	}
	low := hitRate(1)    // nearly uniform acceptance: random walk
	high := hitRate(1e6) // near-greedy with escape
	if high < low {
		t.Errorf("hit rate did not increase with δ: low=%v high=%v", low, high)
	}
	if high < 0.8 {
		t.Errorf("high-δ hit rate only %v", high)
	}
}

func TestHistoryMonotoneNonIncreasing(t *testing.T) {
	p := smallProblem(4, 70)
	res, err := Solve(p, Options{Delta: 1e5, MaxIters: 500, Seed: 11, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.Stats.Iters {
		t.Fatalf("history length %d != iters %d", len(res.History), res.Stats.Iters)
	}
	// The incumbent g̃* can temporarily move up (Gibbs sampling may accept a
	// worse exploration), so we check it ends no worse than it starts and
	// stays finite.
	if res.History[len(res.History)-1] > res.History[0]*(1+1e-9) {
		t.Errorf("final incumbent %v worse than initial %v",
			res.History[len(res.History)-1], res.History[0])
	}
	for i, v := range res.History {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("history[%d] = %v", i, v)
		}
	}
}

func TestPatienceStopsEarly(t *testing.T) {
	p := smallProblem(2, 20)
	res, err := Solve(p, Options{Delta: 1e6, MaxIters: 100000, Patience: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Iters >= 100000 {
		t.Errorf("patience did not stop the run (iters = %d)", res.Stats.Iters)
	}
}

func TestInitSpeedsRespected(t *testing.T) {
	p := smallProblem(3, 30)
	init := []int{4, 4, 4}
	res, err := Solve(p, Options{Delta: 1e5, MaxIters: 10, Seed: 9, InitSpeeds: init})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Infeasible init must be rejected.
	if _, err := Solve(p, Options{Delta: 1e5, MaxIters: 10, Seed: 9, InitSpeeds: []int{0, 0, 0}}); err != ErrInfeasibleInit {
		t.Errorf("want ErrInfeasibleInit, got %v", err)
	}
	// Wrong length.
	if _, err := Solve(p, Options{Delta: 1e5, MaxIters: 10, InitSpeeds: []int{4}}); err == nil {
		t.Error("short InitSpeeds accepted")
	}
}

func TestFailedGroupsDoNotParticipate(t *testing.T) {
	p := smallProblem(4, 50)
	failed := []bool{false, true, false, true}
	res, err := Solve(p, Options{Delta: 1e5, MaxIters: 800, Seed: 13, Failed: failed})
	if err != nil {
		t.Fatal(err)
	}
	for g, f := range failed {
		if f && (res.Solution.Speeds[g] != 0 || res.Solution.Load[g] != 0) {
			t.Errorf("failed group %d has speed %d load %v",
				g, res.Solution.Speeds[g], res.Solution.Load[g])
		}
	}
	// All groups failed → error.
	if _, err := Solve(p, Options{Delta: 1, MaxIters: 1, Failed: []bool{true, true, true, true}}); err == nil {
		t.Error("all-failed accepted")
	}
	// Wrong length.
	if _, err := Solve(p, Options{Delta: 1, MaxIters: 1, Failed: []bool{true}}); err == nil {
		t.Error("short Failed accepted")
	}
}

func TestTooManyFailuresInfeasible(t *testing.T) {
	// With 3 of 4 groups failed the survivor cannot carry the load.
	p := smallProblem(4, 150)
	failed := []bool{true, true, true, false}
	if _, err := Solve(p, Options{Delta: 1e5, MaxIters: 100, Failed: failed}); err != ErrInfeasibleInit {
		t.Errorf("want ErrInfeasibleInit, got %v", err)
	}
}

func TestAcceptProb(t *testing.T) {
	// Better exploration (smaller g̃ᵉ) → u > 1/2; much better → u ≈ 1.
	if u := acceptProb(1e6, 1, 2); u < 0.99 {
		t.Errorf("much better exploration u = %v", u)
	}
	if u := acceptProb(1e6, 2, 1); u > 0.01 {
		t.Errorf("much worse exploration u = %v", u)
	}
	if u := acceptProb(100, 5, 5); math.Abs(u-0.5) > 1e-12 {
		t.Errorf("equal objectives u = %v, want 0.5", u)
	}
	// Infeasible exploration never accepted at high δ.
	if u := acceptProb(1e6, math.Inf(1), 3); u > 1e-6 {
		t.Errorf("infeasible exploration u = %v", u)
	}
	// δ = 0: pure coin flip regardless of values.
	if u := acceptProb(0, 1, 100); u != 0.5 {
		t.Errorf("δ=0 u = %v", u)
	}
	// Zero objectives do not produce NaN.
	if u := acceptProb(10, 0, 1); math.IsNaN(u) || u < 0.99 {
		t.Errorf("zero-cost exploration u = %v", u)
	}
}

func TestSolverInterfaceWarmStart(t *testing.T) {
	p := smallProblem(3, 40)
	s := &Solver{Opts: Options{Delta: 1e5, MaxIters: 400, Seed: 21}}
	var _ p3.Solver = s
	first, err := s.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	// Next slot has a larger load; warm start may be infeasible and must
	// fall back rather than fail.
	p2 := smallProblem(3, 140)
	second, err := s.Solve(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Cluster.CheckConfig(second.Speeds, second.Load); err != nil {
		t.Fatal(err)
	}
	_ = first
}

// TestSolveMemoryLinearInGroups checks that the bytes one fresh Solve
// allocates grow linearly with the group count: quadrupling the groups of
// one server type must cost well under the 16× a groups²-sized structure
// would.
func TestSolveMemoryLinearInGroups(t *testing.T) {
	alloc := func(groups int) uint64 {
		cluster := dcmodel.PaperCluster(groups)
		prob := &dcmodel.SlotProblem{
			Cluster: cluster, LambdaRPS: 0.3 * cluster.MaxCapacityRPS(),
			We: 0.05, Wd: 0.02,
		}
		best := uint64(math.MaxUint64)
		for rep := 0; rep < 3; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Solve(prob, Options{Delta: 1e8, MaxIters: 200, Seed: 1}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := alloc(100), alloc(400)
	if ratio := float64(large) / float64(small); ratio > 8 {
		t.Errorf("Solve allocates %d B at 100 groups and %d B at 400 (%.1fx, want <= 8x)",
			small, large, ratio)
	}
}
