package loadbalance

import (
	"testing"

	"repro/internal/stats"
)

// TestResetMatchesFresh drives one long-lived Instance through Reset calls
// across different problems and randomized speed vectors — including Resets
// from a dirtied state (pending SetSpeed mutations) — and requires every
// re-prepared instance to solve bit-for-bit identically to a fresh
// NewInstance build. This is the invariant that lets the GSD engine pool
// recycle instances.
func TestResetMatchesFresh(t *testing.T) {
	rng := stats.NewRNG(91)
	in := &Instance{}
	cases := incrementalCases()
	for trial := 0; trial < 200; trial++ {
		tc := cases[trial%len(cases)]
		n := len(tc.prob.Cluster.Groups)
		speeds := make([]int, n)
		for g := range speeds {
			speeds[g] = rng.IntN(tc.prob.Cluster.Groups[g].Type.NumSpeeds() + 1)
		}
		err := in.Reset(tc.prob, speeds)
		if _, wantErr := NewInstance(tc.prob, speeds); (err != nil) != (wantErr != nil) {
			t.Fatalf("trial %d (%s): Reset err %v, NewInstance err %v", trial, tc.name, err, wantErr)
		}
		if err != nil {
			continue
		}
		requireBitEqual(t, trial, tc.prob, in, speeds)
		// Dirty the instance before the next Reset: pending and committed
		// mutations must not leak through.
		for m := 0; m < 3; m++ {
			g := rng.IntN(n)
			k := rng.IntN(tc.prob.Cluster.Groups[g].Type.NumSpeeds() + 1)
			if err := in.SetSpeed(g, k); err != nil {
				t.Fatal(err)
			}
			if m == 1 {
				in.Commit()
			}
		}
	}
}

// TestProposalFeasibleAgreesWithSetSpeed checks the advisory estimate
// against the authoritative SetSpeed+Feasible answer on randomized
// configurations. The two can differ only within ulps of the γ bound,
// which continuous random loads never hit.
func TestProposalFeasibleAgreesWithSetSpeed(t *testing.T) {
	rng := stats.NewRNG(17)
	for _, tc := range incrementalCases() {
		n := len(tc.prob.Cluster.Groups)
		top := make([]int, n)
		for g := range top {
			top[g] = tc.prob.Cluster.Groups[g].Type.NumSpeeds()
		}
		in, err := NewInstance(tc.prob, top)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for trial := 0; trial < 400; trial++ {
			g := rng.IntN(n)
			k := rng.IntN(tc.prob.Cluster.Groups[g].Type.NumSpeeds() + 1)
			want := func() bool {
				if err := in.SetSpeed(g, k); err != nil {
					t.Fatal(err)
				}
				defer in.Revert()
				return in.Feasible()
			}()
			if got := in.ProposalFeasible(g, k); got != want {
				t.Fatalf("%s trial %d: ProposalFeasible(%d,%d) = %v, SetSpeed+Feasible = %v",
					tc.name, trial, g, k, got, want)
			}
			// Occasionally walk the base configuration so estimates are
			// exercised from many states.
			if trial%5 == 0 {
				if err := in.SetSpeed(g, k); err == nil {
					in.Commit()
				}
			}
		}
	}
}

// TestProposalFeasibleRejectsOutOfRange pins the out-of-range contract.
func TestProposalFeasibleRejectsOutOfRange(t *testing.T) {
	tc := incrementalCases()[0]
	n := len(tc.prob.Cluster.Groups)
	top := make([]int, n)
	for g := range top {
		top[g] = tc.prob.Cluster.Groups[g].Type.NumSpeeds()
	}
	in, err := NewInstance(tc.prob, top)
	if err != nil {
		t.Fatal(err)
	}
	for _, gk := range [][2]int{{-1, 0}, {n, 0}, {0, -1}, {0, tc.prob.Cluster.Groups[0].Type.NumSpeeds() + 1}} {
		if in.ProposalFeasible(gk[0], gk[1]) {
			t.Fatalf("ProposalFeasible(%d,%d) = true for out-of-range proposal", gk[0], gk[1])
		}
	}
}
