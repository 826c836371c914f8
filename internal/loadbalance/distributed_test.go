package loadbalance

import (
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/stats"
)

// solveDistributed runs the price protocol on a fresh instance.
func solveDistributed(p *dcmodel.SlotProblem, speeds []int) (dcmodel.Solution, int, error) {
	in, err := NewInstance(p, speeds)
	if err != nil {
		return dcmodel.Solution{}, 0, err
	}
	var sol dcmodel.Solution
	rounds, err := in.SolveDistributedInto(&sol)
	return sol, rounds, err
}

// TestDistributedSplitBitwise pins the price protocol to the centralized
// split: over random speeds and problems on a two-group, a heterogeneous
// 240×12 and a paper 16-group cluster, the distributed split must return
// Solve's loads and objective bit for bit, in every regime of the [·]^+
// kink. The kink cases are aimed by putting the on-site supply between the
// grid fill's power and the surplus fill's power.
func TestDistributedSplitBitwise(t *testing.T) {
	rng := stats.NewRNG(55)
	families := []struct {
		name    string
		cluster *dcmodel.Cluster
	}{
		{"two-groups", twoGroups(true)},
		{"hetero-240x12", dcmodel.HeterogeneousCluster(240, 12)},
		{"paper-16", dcmodel.PaperCluster(16)},
	}
	regimes := []string{"grid", "surplus", "kink"}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			c := fam.cluster
			seen := map[string]int{}
			for trial := 0; trial < 600; trial++ {
				speeds := make([]int, len(c.Groups))
				for g := range speeds {
					speeds[g] = rng.IntN(c.Groups[g].Type.NumSpeeds() + 1)
				}
				capRPS := c.UsableCapacityRPS(speeds)
				if capRPS == 0 {
					continue
				}
				p := &dcmodel.SlotProblem{
					Cluster:   c,
					LambdaRPS: rng.Uniform(0.02, 0.98) * capRPS,
					We:        rng.Uniform(0.01, 3),
					Wd:        rng.Uniform(0.001, 2),
				}
				switch regimes[trial%len(regimes)] {
				case "surplus":
					p.OnsiteKW = 1e12
				case "kink":
					ref := newRefSolver(p, speeds)
					grid, gerr := ref.fill(p.We)
					free, ferr := ref.fill(0)
					if gerr != nil || ferr != nil {
						t.Fatalf("trial %d: reference fills: %v, %v", trial, gerr, ferr)
					}
					lo, hi := ref.powerOf(grid), ref.powerOf(free)
					p.OnsiteKW = lo + rng.Uniform(0.05, 0.95)*(hi-lo)
				}
				want, err := Solve(p, speeds)
				if err != nil {
					t.Fatalf("trial %d centralized: %v", trial, err)
				}
				got, rounds, err := solveDistributed(p, speeds)
				if err != nil {
					t.Fatalf("trial %d distributed: %v", trial, err)
				}
				checkFeasible(t, p, got)
				if rounds < 1 {
					t.Fatalf("trial %d: %d price rounds", trial, rounds)
				}
				for g := range want.Load {
					if got.Load[g] != want.Load[g] {
						t.Fatalf("trial %d: group %d load %v (distributed) != %v (centralized)",
							trial, g, got.Load[g], want.Load[g])
					}
				}
				if got.Value != want.Value {
					t.Fatalf("trial %d: value %v (distributed) != %v (centralized)",
						trial, got.Value, want.Value)
				}
				ref := newRefSolver(p, speeds)
				if _, err := ref.solve(); err != nil {
					t.Fatalf("trial %d reference: %v", trial, err)
				}
				seen[ref.regime]++
			}
			for _, r := range regimes {
				if seen[r] < 80 {
					t.Fatalf("regime %s reached %d times (seen %v); generator drifted", r, seen[r], seen)
				}
			}
		})
	}
}

func TestDistributedManyGroups(t *testing.T) {
	c := dcmodel.PaperCluster(16)
	speeds := make([]int, len(c.Groups))
	for i := range speeds {
		speeds[i] = 1 + i%4
	}
	p := &dcmodel.SlotProblem{
		Cluster:   c,
		LambdaRPS: 200000,
		We:        0.08,
		Wd:        0.01,
		OnsiteKW:  3000,
	}
	cent, err := Solve(p, speeds)
	if err != nil {
		t.Fatal(err)
	}
	dist, rounds, err := solveDistributed(p, speeds)
	if err != nil {
		t.Fatal(err)
	}
	if rounds < 1 {
		t.Errorf("distributed split reports %d price rounds", rounds)
	}
	checkFeasible(t, p, dist)
	if math.Abs(dist.Value-cent.Value) > 1e-3*(1+cent.Value) {
		t.Errorf("distributed %v vs centralized %v", dist.Value, cent.Value)
	}
}

func TestDistributedRejectsZeroDelayWeight(t *testing.T) {
	c := twoGroups(false)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 10, We: 1, Wd: 0}
	if _, _, err := solveDistributed(p, []int{4, 4}); err != ErrNeedsDelayWeight {
		t.Errorf("want ErrNeedsDelayWeight, got %v", err)
	}
}

func TestDistributedInfeasible(t *testing.T) {
	c := twoGroups(false)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 1e7, We: 1, Wd: 0.01}
	if _, _, err := solveDistributed(p, []int{4, 4}); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestDistributedZeroLoad(t *testing.T) {
	c := twoGroups(false)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 0, We: 1, Wd: 0.01}
	sol, _, err := solveDistributed(p, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range sol.Load {
		if l != 0 {
			t.Errorf("zero-λ distributed load = %v", sol.Load)
		}
	}
}
