package gsd

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/loadbalance"
)

// TestStationaryDistributionGibbsShape validates the structural heart of
// Theorem 1: at a moderate temperature the chain's empirical visit
// frequencies over incumbent states must *rank* like the Gibbs weights
// exp(δ/g̃(x)) — better (cheaper) states strictly more popular — and the
// best state must be the mode.
func TestStationaryDistributionGibbsShape(t *testing.T) {
	// One group with 5 states (off + 4 speeds): small enough to enumerate
	// every state's objective exactly.
	cluster := &dcmodel.Cluster{
		Groups: []dcmodel.Group{{Type: dcmodel.Opteron(), N: 4}},
		Gamma:  0.95, PUE: 1,
	}
	prob := &dcmodel.SlotProblem{
		Cluster:   cluster,
		LambdaRPS: 8,
		We:        0.3, Wd: 0.01,
	}
	// Exact objective of every feasible state.
	objective := map[int]float64{}
	for k := 0; k <= 4; k++ {
		speeds := []int{k}
		if !prob.Feasible(speeds) {
			continue
		}
		sol, err := loadbalance.Solve(prob, speeds)
		if err != nil {
			continue
		}
		objective[k] = sol.Value
	}
	if len(objective) < 3 {
		t.Fatalf("need several feasible states, got %d", len(objective))
	}

	// Run a long chain at a temperature that separates the states without
	// freezing: visit counts of the incumbent x* after each iteration.
	gs := make([]float64, 0, len(objective))
	for _, g := range objective {
		gs = append(gs, g)
	}
	sort.Float64s(gs)
	gMin, gSecond := gs[0], gs[1]
	// Pick δ so the top two states differ by ≈ 2 units of δ/g̃ — clearly
	// separated visit rates without freezing the chain.
	delta := 2 / (1/gMin - 1/gSecond)
	if math.IsInf(delta, 0) || delta <= 0 {
		t.Skip("top states exactly tied; no separation possible")
	}
	visits := map[int]int{}
	e, err := newEngine(prob, Options{Delta: delta, MaxIters: 1, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 60000
	for i := 0; i < iters; i++ {
		e.step(delta, nil)
		visits[e.best.Speeds[0]]++
	}

	// Rank check: order states by objective; visit counts must be strictly
	// decreasing along that order (with a slack for Monte-Carlo noise).
	type sv struct {
		state  int
		g      float64
		visits int
	}
	var list []sv
	for k, g := range objective {
		list = append(list, sv{k, g, visits[k]})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].g < list[j].g })
	if list[0].visits < iters/3 {
		t.Errorf("best state visited only %d of %d times", list[0].visits, iters)
	}
	for i := 1; i < len(list); i++ {
		// Only enforce ordering across clearly separated objectives; states
		// within 3% are statistically indistinguishable at finite samples.
		if list[i].g > list[i-1].g*1.03 && list[i].visits > list[i-1].visits {
			t.Errorf("state %d (g=%.3f) visited %d times, more than better state %d (g=%.3f, %d visits)",
				list[i].state, list[i].g, list[i].visits,
				list[i-1].state, list[i-1].g, list[i-1].visits)
		}
	}
}
