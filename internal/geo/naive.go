package geo

import (
	"fmt"
	"math"
)

// stepNaive is the pre-memoization reference implementation of Step, kept
// verbatim (minus observability) as the bit-for-bit yardstick for the
// split hot path: golden tests require Step's allocation and operated
// outcome to hash identically to this loop, and its solve count is the
// baseline the memo counters are measured against. It re-solves every
// feasible site's P3 in every greedy round — O(Chunks·K) solves — and
// solves each loaded site once more in the operate pass; the memoized path
// must account for exactly those solves as p3Solves + memoHits.
//
// It does not advance the slot; Settle the returned outcome as usual.
func (sys *System) stepNaive(lambda, v float64) (StepOutcome, int, error) {
	if err := validateStep(sys.slot, sys.Slots, lambda, sys.TotalCapacityRPS(), v); err != nil {
		return StepOutcome{}, 0, err
	}
	k := len(sys.Sites)
	solves := 0
	split := make([]float64, k)
	if lambda > 0 {
		chunk := lambda / Chunks
		cur := make([]float64, k) // current site values
		for c := 0; c < Chunks; c++ {
			best := -1
			bestDelta := math.Inf(1)
			for i := 0; i < k; i++ {
				if split[i]+chunk > sys.Sites[i].CapacityRPS() {
					continue
				}
				solves++
				delta := sys.siteValue(i, v, split[i]+chunk) - cur[i]
				if delta < bestDelta {
					best, bestDelta = i, delta
				}
			}
			if best < 0 {
				return StepOutcome{}, solves, errNoAbsorb
			}
			split[best] += chunk
			cur[best] += bestDelta
		}
	}
	out := StepOutcome{Sites: make([]SiteOutcome, k)}
	for i := 0; i < k; i++ {
		so := SiteOutcome{LoadRPS: split[i]}
		if split[i] > 0 {
			solves++
			sol, err := sys.siteProblem(i, v, split[i]).Solve()
			if err != nil {
				return StepOutcome{}, solves, fmt.Errorf("geo: site %s: %w", sys.Sites[i].Name, err)
			}
			so.Speed, so.Active = sol.Speed, sol.Active
			ch := sys.siteLedger(i).Charge(sol.PowerKW, sol.DelayCost, 0)
			so.PowerKW, so.GridKWh, so.DelayCost = ch.PowerKW, ch.GridKWh, ch.DelayCost
			so.CostUSD = ch.TotalUSD
		}
		out.Sites[i] = so
		out.TotalCostUSD += so.CostUSD
		out.TotalGridKWh += so.GridKWh
	}
	return out, solves, nil
}
