package geo

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/p3"
)

// This file is the geo split hot path: the memoized, incremental greedy
// marginal allocation behind System.Step. It is pinned bit-for-bit against
// the naive reference loop stepNaive in split_test.go (see
// TestGoldenSplitParity), which it replaces at O(Chunks + K) P3 solves per
// slot instead of O(Chunks·K).
//
// The key invariant: site values are only ever needed on the per-slot grid
// μ = split_i + chunk where split_i accumulates whole chunks, and within a
// slot the value of (site, tentative load) never changes. So each site
// carries exactly one cached candidate — its marginal value for absorbing
// the *next* chunk — and a greedy round invalidates only the winner's
// entry. Everything else is a memo hit the naive loop would have paid a
// fresh HomogeneousProblem.Solve for.

// errNoAbsorb is the Step failure when the greedy allocation strands load:
// every site is either at capacity for the next chunk or P3-infeasible.
var errNoAbsorb = errors.New("geo: no site can absorb the next chunk")

// candidate is one site's slot of the per-slot value table: the site's P3
// value and solution at its current tentative load plus one chunk, and the
// marginal delta the greedy argmin scans. Valid until the site wins a
// chunk (nothing else moves its tentative load within the slot).
type candidate struct {
	capOK bool    // split_i + chunk fits the site's γ-discounted capacity
	fresh bool    // solved this round; reset to a memo hit on first scan
	value float64 // P3 optimum at split_i + chunk (+Inf when infeasible)
	delta float64 // value − cur_i, the greedy marginal cost
	sol   p3.HomogeneousSolution
}

// splitPlan is a computed greedy allocation plus the cached P3 solutions
// backing it and the solve accounting the spans and metrics report.
type splitPlan struct {
	split    []float64 // allocated load per site
	chunks   []int     // greedy chunks won per site
	marginal []float64 // last winning marginal cost per site
	sols     []p3.HomogeneousSolution
	p3Solves int // fresh HomogeneousProblem.Solve calls spent
	memoHits int // candidate reads (and final-pass reuses) served from cache
}

// greedySplit allocates lambda across the sites in λ/Chunks increments by
// greedy marginal cost — arithmetic identical to stepNaive, with the
// candidate table absorbing every redundant re-solve.
func (sys *System) greedySplit(lambda, v float64) (splitPlan, error) {
	k := len(sys.Sites)
	plan := splitPlan{
		split:    make([]float64, k),
		chunks:   make([]int, k),
		marginal: make([]float64, k),
		sols:     make([]p3.HomogeneousSolution, k),
	}
	if lambda <= 0 {
		return plan, nil
	}
	chunk := lambda / Chunks
	cur := make([]float64, k) // current site values, accumulated like naive
	cand := make([]candidate, k)
	// eval refreshes site i's candidate, counting the fresh solve. Capacity
	// infeasibility (p3.ErrInfeasible) is a legitimate "site full" answer
	// valued +Inf; any other solver error — a malformed instance, a
	// corrupted load — is a real failure the step must surface.
	eval := func(i int) error {
		c := &cand[i]
		*c = candidate{fresh: true}
		if plan.split[i]+chunk > sys.sites[i].capRPS {
			return nil
		}
		c.capOK = true
		plan.p3Solves++
		sol, err := sys.siteProblem(i, v, plan.split[i]+chunk).Solve()
		switch {
		case errors.Is(err, p3.ErrInfeasible):
			c.value = math.Inf(1)
		case err != nil:
			return fmt.Errorf("geo: site %s: %w", sys.Sites[i].Name, err)
		default:
			c.value, c.sol = sol.Value, sol
		}
		c.delta = c.value - cur[i]
		return nil
	}

	// Initial candidates: every site's value at one chunk.
	for i := range cand {
		if err := eval(i); err != nil {
			return plan, err
		}
	}

	for c := 0; c < Chunks; c++ {
		best := -1
		bestDelta := math.Inf(1)
		for i := 0; i < k; i++ {
			if !cand[i].capOK {
				continue
			}
			if cand[i].fresh {
				cand[i].fresh = false
			} else {
				plan.memoHits++ // the naive loop re-solves this site here
			}
			if cand[i].delta < bestDelta {
				best, bestDelta = i, cand[i].delta
			}
		}
		if best < 0 {
			return plan, errNoAbsorb
		}
		plan.split[best] += chunk
		cur[best] += bestDelta
		plan.chunks[best]++
		plan.marginal[best] = bestDelta
		// The winning candidate was solved at exactly the new split: keep
		// its solution so the operate pass never re-solves.
		plan.sols[best] = cand[best].sol
		if c+1 == Chunks {
			break // no next round: the naive loop stops evaluating too
		}
		// Only the winner's tentative load moved; every other cached
		// (value, Δ) pair is still exact. One fresh solve per round.
		if err := eval(best); err != nil {
			return plan, err
		}
	}
	return plan, nil
}
