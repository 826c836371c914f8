package geo

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/p3"
	"repro/internal/workpool"
)

// This file is the geo split hot path: the memoized, incremental and
// optionally parallel greedy marginal allocation behind System.Step. It is
// pinned bit-for-bit against the naive reference loop in naive.go (see
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
	err   error // real solver failure (never capacity infeasibility)
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

// evalSite solves site i's P3 at load mu, separating the two failure
// modes: capacity-type infeasibility (p3.ErrInfeasible) is a legitimate
// "site full" answer reported as +Inf, while any other error — a malformed
// instance, a corrupted load — is a real failure the step must surface
// (previously every error was masked as +Inf).
func (sys *System) evalSite(i int, v, mu float64) (float64, p3.HomogeneousSolution, error) {
	sol, err := sys.siteProblem(i, v, mu).Solve()
	if err != nil {
		if errors.Is(err, p3.ErrInfeasible) {
			return math.Inf(1), p3.HomogeneousSolution{}, nil
		}
		return 0, p3.HomogeneousSolution{}, err
	}
	return sol.Value, sol, nil
}

// greedySplit allocates lambda across the sites in λ/Chunks increments by
// greedy marginal cost — arithmetic identical to stepNaive, with the
// candidate table absorbing every redundant re-solve and the worker pool
// fanning the initial K evaluations.
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
	eval := func(i int) {
		c := &cand[i]
		*c = candidate{fresh: true}
		if plan.split[i]+chunk > sys.Sites[i].CapacityRPS() {
			return
		}
		c.capOK = true
		c.value, c.sol, c.err = sys.evalSite(i, v, plan.split[i]+chunk)
		c.delta = c.value - cur[i]
	}

	// Initial candidates: every site's value at one chunk, fanned across
	// the worker pool. Each job writes only its own table slot, so the
	// result — and the lowest-index error below — is independent of
	// scheduling.
	workpool.Fan(sys.workers(), k, eval)
	for i := range cand {
		if !cand[i].capOK {
			continue
		}
		plan.p3Solves++
		if cand[i].err != nil {
			return plan, fmt.Errorf("geo: site %s: %w", sys.Sites[i].Name, cand[i].err)
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
		eval(best)
		if cand[best].capOK {
			plan.p3Solves++
			if cand[best].err != nil {
				return plan, fmt.Errorf("geo: site %s: %w", sys.Sites[best].Name, cand[best].err)
			}
		}
	}
	return plan, nil
}
