package loadbalance

import (
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/stats"
)

func TestDistributedMatchesCentralized(t *testing.T) {
	rng := stats.NewRNG(55)
	for trial := 0; trial < 20; trial++ {
		c := twoGroups(trial%2 == 0)
		k1 := 1 + rng.IntN(4)
		k2 := rng.IntN(5)
		speeds := []int{k1, k2}
		capSum := c.UsableCapacityRPS(speeds)
		if capSum < 1 {
			continue
		}
		p := &dcmodel.SlotProblem{
			Cluster:   c,
			LambdaRPS: rng.Uniform(0, 0.95*capSum),
			We:        rng.Uniform(0, 0.5),
			Wd:        rng.Uniform(0.001, 0.05),
			OnsiteKW:  rng.Uniform(0, 8),
		}
		cent, err := Solve(p, speeds)
		if err != nil {
			t.Fatalf("trial %d centralized: %v", trial, err)
		}
		dist, _, err := SolveDistributed(p, speeds)
		if err != nil {
			t.Fatalf("trial %d distributed: %v", trial, err)
		}
		checkFeasible(t, p, dist)
		if math.Abs(dist.Value-cent.Value) > 1e-3*(1+cent.Value) {
			t.Errorf("trial %d: distributed value %v != centralized %v",
				trial, dist.Value, cent.Value)
		}
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
	dist, rounds, err := SolveDistributed(p, speeds)
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
	if _, _, err := SolveDistributed(p, []int{4, 4}); err != ErrNeedsDelayWeight {
		t.Errorf("want ErrNeedsDelayWeight, got %v", err)
	}
}

func TestDistributedInfeasible(t *testing.T) {
	c := twoGroups(false)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 1e7, We: 1, Wd: 0.01}
	if _, _, err := SolveDistributed(p, []int{4, 4}); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestDistributedZeroLoad(t *testing.T) {
	c := twoGroups(false)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 0, We: 1, Wd: 0.01}
	sol, _, err := SolveDistributed(p, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range sol.Load {
		if l != 0 {
			t.Errorf("zero-λ distributed load = %v", sol.Load)
		}
	}
}
