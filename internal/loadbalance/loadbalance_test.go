package loadbalance

import (
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/stats"
)

// twoGroups builds a small two-group cluster; heterogeneous when het is true.
func twoGroups(het bool) *dcmodel.Cluster {
	a := dcmodel.Opteron()
	b := dcmodel.Opteron()
	nb := 10
	if het {
		// A slower, hungrier second type.
		for i := range b.Levels {
			b.Levels[i].RateRPS *= 0.6
			b.Levels[i].BusyKW *= 1.2
		}
		b.StaticKW *= 1.2
		b.Name = "slow"
		nb = 20
	}
	return &dcmodel.Cluster{
		Groups: []dcmodel.Group{{Type: a, N: 10}, {Type: b, N: nb}},
		Gamma:  0.95,
		PUE:    1,
	}
}

func checkFeasible(t *testing.T, p *dcmodel.SlotProblem, sol dcmodel.Solution) {
	t.Helper()
	if err := p.Cluster.CheckConfig(sol.Speeds, sol.Load); err != nil {
		t.Fatalf("infeasible solution: %v", err)
	}
	var sum float64
	for _, l := range sol.Load {
		sum += l
	}
	if math.Abs(sum-p.LambdaRPS) > 1e-4*(1+p.LambdaRPS) {
		t.Fatalf("Σload = %v, want λ = %v", sum, p.LambdaRPS)
	}
}

func TestSolveSymmetricEqualSplit(t *testing.T) {
	c := twoGroups(false)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 100, We: 0.05, Wd: 0.01}
	sol, err := Solve(p, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, p, sol)
	if math.Abs(sol.Load[0]-sol.Load[1]) > 1e-4 {
		t.Errorf("symmetric groups got asymmetric split: %v", sol.Load)
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(71)
	for trial := 0; trial < 40; trial++ {
		het := trial%2 == 0
		c := twoGroups(het)
		k1 := 1 + rng.IntN(4)
		k2 := 1 + rng.IntN(4)
		cap1 := c.Gamma * c.Groups[0].RateAt(k1)
		cap2 := c.Gamma * c.Groups[1].RateAt(k2)
		lambda := rng.Uniform(1, 0.9*(cap1+cap2))
		p := &dcmodel.SlotProblem{
			Cluster:   c,
			LambdaRPS: lambda,
			We:        rng.Uniform(0, 0.3),
			Wd:        rng.Uniform(0.001, 0.05),
			OnsiteKW:  rng.Uniform(0, 6),
		}
		sol, err := Solve(p, []int{k1, k2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkFeasible(t, p, sol)
		// Brute force over the 1-D feasible segment.
		lo := math.Max(0, lambda-cap2)
		hi := math.Min(cap1, lambda)
		best := math.Inf(1)
		const steps = 4000
		for i := 0; i <= steps; i++ {
			l1 := lo + (hi-lo)*float64(i)/steps
			v := p.Objective([]int{k1, k2}, []float64{l1, lambda - l1})
			if v < best {
				best = v
			}
		}
		if sol.Value > best*(1+1e-3)+1e-9 {
			t.Errorf("trial %d (het=%v): solver %v worse than brute force %v",
				trial, het, sol.Value, best)
		}
	}
}

func TestSolveKinkRegimePinsPowerAtOnsite(t *testing.T) {
	c := twoGroups(true)
	// Find the power span achievable at λ=120 on full speeds, then place r
	// strictly inside it so the kink regime is exercised.
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 120, We: 10, Wd: 0.005}
	speeds := []int{4, 4}
	in, err := NewInstance(p, speeds)
	if err != nil {
		t.Fatal(err)
	}
	gridLoads, _ := in.fill(p.We)
	freeLoads, _ := in.fill(0)
	pGrid := in.powerOf(gridLoads)
	pFree := in.powerOf(freeLoads)
	if pFree <= pGrid {
		t.Skipf("no kink span for this instance (pFree=%v pGrid=%v)", pFree, pGrid)
	}
	p.OnsiteKW = (pGrid + pFree) / 2
	sol, err := Solve(p, speeds)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, p, sol)
	got := c.FacilityPowerKW(sol.Speeds, sol.Load)
	if math.Abs(got-p.OnsiteKW) > 1e-3*(1+p.OnsiteKW) {
		t.Errorf("kink regime power = %v, want pinned at r = %v", got, p.OnsiteKW)
	}
}

func TestSolveSurplusRegimeIgnoresElectricity(t *testing.T) {
	c := twoGroups(true)
	speeds := []int{4, 4}
	// Huge on-site supply: the electricity term vanishes and the split must
	// match the We = 0 split.
	pSurplus := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 100, We: 5, Wd: 0.01, OnsiteKW: 1e6}
	pFree := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 100, We: 0, Wd: 0.01}
	s1, err := Solve(pSurplus, speeds)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Solve(pFree, speeds)
	if err != nil {
		t.Fatal(err)
	}
	for g := range s1.Load {
		if math.Abs(s1.Load[g]-s2.Load[g]) > 1e-3 {
			t.Errorf("group %d: surplus split %v != free split %v", g, s1.Load[g], s2.Load[g])
		}
	}
}

func TestSolveInfeasible(t *testing.T) {
	c := twoGroups(false)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 1e6, We: 1, Wd: 1}
	if _, err := Solve(p, []int{4, 4}); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
	// All groups off with positive load.
	p2 := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 1, We: 1, Wd: 1}
	if _, err := Solve(p2, []int{0, 0}); err != ErrInfeasible {
		t.Errorf("all-off: want ErrInfeasible, got %v", err)
	}
}

// TestResetRejectsBadScalars pins that NewInstance/Reset, and so Solve,
// return an error for a NaN or infinite λ, weight or on-site supply and for
// a negative weight. A NaN λ used to solve to a split carrying ~4e-6 RPS,
// and a NaN We, Wd or OnsiteKW to Value = NaN, each with a nil error.
func TestResetRejectsBadScalars(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		edit func(*dcmodel.SlotProblem)
	}{
		{"lambda NaN", func(p *dcmodel.SlotProblem) { p.LambdaRPS = nan }},
		{"lambda +Inf", func(p *dcmodel.SlotProblem) { p.LambdaRPS = inf }},
		{"We NaN", func(p *dcmodel.SlotProblem) { p.We = nan }},
		{"We +Inf", func(p *dcmodel.SlotProblem) { p.We = inf }},
		{"We negative", func(p *dcmodel.SlotProblem) { p.We = -0.05 }},
		{"Wd NaN", func(p *dcmodel.SlotProblem) { p.Wd = nan }},
		{"Wd +Inf", func(p *dcmodel.SlotProblem) { p.Wd = inf }},
		{"Wd negative", func(p *dcmodel.SlotProblem) { p.Wd = -0.01 }},
		{"OnsiteKW NaN", func(p *dcmodel.SlotProblem) { p.OnsiteKW = nan }},
		{"OnsiteKW +Inf", func(p *dcmodel.SlotProblem) { p.OnsiteKW = inf }},
		{"OnsiteKW -Inf", func(p *dcmodel.SlotProblem) { p.OnsiteKW = -inf }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &dcmodel.SlotProblem{Cluster: twoGroups(true), LambdaRPS: 50, We: 0.05, Wd: 0.01, OnsiteKW: 1}
			in, err := NewInstance(p, []int{4, 4})
			if err != nil {
				t.Fatalf("valid problem rejected: %v", err)
			}
			tc.edit(p)
			if err := in.Reset(p, []int{4, 4}); err == nil {
				t.Error("Reset accepted it")
			}
			if sol, err := Solve(p, []int{4, 4}); err == nil {
				t.Errorf("Solve returned Value %v with a nil error", sol.Value)
			}
		})
	}
}

func TestSolveZeroLoad(t *testing.T) {
	c := twoGroups(false)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 0, We: 1, Wd: 0.01}
	sol, err := Solve(p, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range sol.Load {
		if l != 0 {
			t.Errorf("zero-λ load = %v", sol.Load)
		}
	}
}

func TestSolveOffGroupsGetNoLoad(t *testing.T) {
	c := twoGroups(true)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 50, We: 0.05, Wd: 0.01}
	sol, err := Solve(p, []int{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, p, sol)
	if sol.Load[1] != 0 {
		t.Errorf("off group received load %v", sol.Load[1])
	}
}

func TestSolveBadSpeedVector(t *testing.T) {
	c := twoGroups(false)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 10, We: 1, Wd: 1}
	if _, err := Solve(p, []int{4}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Solve(p, []int{9, 4}); err == nil {
		t.Error("bad index accepted")
	}
}

func TestSolveNoDelayWeightGreedy(t *testing.T) {
	c := twoGroups(true)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 80, We: 0.05, Wd: 0}
	sol, err := Solve(p, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, p, sol)
	// Group 0 (Opteron) has the lower power slope; it must be saturated
	// before the slow group receives anything.
	cap0 := c.Gamma * c.Groups[0].RateAt(4)
	if p.LambdaRPS > cap0 {
		if math.Abs(sol.Load[0]-cap0) > 1e-6 {
			t.Errorf("cheap group not saturated: %v < %v", sol.Load[0], cap0)
		}
	} else if sol.Load[1] > 1e-9 {
		t.Errorf("expensive group loaded while cheap group has room: %v", sol.Load)
	}
}

func TestKKTEqualMarginals(t *testing.T) {
	// At an interior optimum all groups share the same marginal cost.
	c := twoGroups(true)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 100, We: 0.05, Wd: 0.01}
	speeds := []int{4, 4}
	in, err := NewInstance(p, speeds)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := in.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var marginals []float64
	for i := range in.gIdx {
		l := sol.Load[in.gIdx[i]]
		if l > 1e-6 && l < in.sys.Cap(i)-1e-6 {
			marginals = append(marginals, in.marginal(i, p.We, l))
		}
	}
	if len(marginals) < 2 {
		t.Skip("no interior pair to compare")
	}
	for i := 1; i < len(marginals); i++ {
		if math.Abs(marginals[i]-marginals[0]) > 1e-3*(1+marginals[0]) {
			t.Errorf("unequal marginals: %v", marginals)
		}
	}
}

func TestSolveManyGroupsProperty(t *testing.T) {
	rng := stats.NewRNG(1234)
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.IntN(6)
		groups := make([]dcmodel.Group, n)
		speeds := make([]int, n)
		base := dcmodel.Opteron()
		for i := range groups {
			st := base
			st.Levels = append([]dcmodel.SpeedLevel(nil), base.Levels...)
			scale := rng.Uniform(0.5, 1.5)
			for j := range st.Levels {
				st.Levels[j].RateRPS *= scale
			}
			groups[i] = dcmodel.Group{Type: st, N: 1 + rng.IntN(30)}
			speeds[i] = rng.IntN(5)
		}
		c := &dcmodel.Cluster{Groups: groups, Gamma: 0.9, PUE: 1.1}
		capSum := c.UsableCapacityRPS(speeds)
		if capSum < 1 {
			continue
		}
		p := &dcmodel.SlotProblem{
			Cluster:   c,
			LambdaRPS: rng.Uniform(0, capSum*0.98),
			We:        rng.Uniform(0, 1),
			Wd:        rng.Uniform(1e-4, 0.1),
			OnsiteKW:  rng.Uniform(0, 20),
		}
		sol, err := Solve(p, speeds)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkFeasible(t, p, sol)
		// Random feasible perturbations must never beat the solution.
		for probe := 0; probe < 30; probe++ {
			alt := append([]float64(nil), sol.Load...)
			i, j := rng.IntN(n), rng.IntN(n)
			if i == j || speeds[i] == 0 || speeds[j] == 0 {
				continue
			}
			capJ := c.Gamma * c.Groups[j].RateAt(speeds[j])
			d := rng.Uniform(0, math.Min(alt[i], capJ-alt[j]))
			alt[i] -= d
			alt[j] += d
			if p.Objective(speeds, alt) < sol.Value-1e-6*(1+sol.Value) {
				t.Fatalf("trial %d: perturbation beats solver: %v < %v",
					trial, p.Objective(speeds, alt), sol.Value)
			}
		}
	}
}
