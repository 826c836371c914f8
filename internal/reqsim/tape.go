package reqsim

import "math"

// SampleTape is the engine's exact streaming percentile sink: Observe
// appends one float64 to a slab that is reused across slots (append is the
// only per-sample cost, allocation-free once the slab has grown to the
// slot's request volume), and Quantile answers with the *exact*
// linear-interpolated order statistic — the same definition as
// stats.Quantile — via in-place quickselect instead of a full sort.
//
// Exactness is the point: the analytic-vs-empirical comparison this engine
// exists for cannot hang on a sketch's error bound, and the percentile
// property test pins Quantile bit-for-bit against the sorted reference.
// Quickselect keeps the per-slot cost O(n) expected instead of O(n log n),
// and the tape's sample order is never part of the contract — Quantile
// reorders the slab freely.
type SampleTape struct {
	buf []float64
}

// Reset empties the tape, keeping its capacity.
func (t *SampleTape) Reset() { t.buf = t.buf[:0] }

// Observe appends one sample.
func (t *SampleTape) Observe(v float64) { t.buf = append(t.buf, v) }

// N returns the number of samples on the tape.
func (t *SampleTape) N() int { return len(t.buf) }

// AppendTo appends the tape's samples to dst and returns it — the merge
// primitive sharded runs use to pool per-shard tapes (in shard order, so
// the merged quantile is deterministic).
func (t *SampleTape) AppendTo(dst []float64) []float64 {
	return append(dst, t.buf...)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) with the exact semantics of
// stats.Quantile — linear interpolation between order statistics — but
// computed by quickselect over the tape's own storage. An empty tape
// returns 0 (a slot with no completed requests has no latency). It panics
// for q outside [0, 1].
func (t *SampleTape) Quantile(q float64) float64 {
	var out [1]float64
	quantilesSelect(t.buf, []float64{q}, out[:])
	return out[0]
}

// percentileLevels are the levels behind Result's P50Sec, P95Sec and
// P99Sec, in the non-decreasing order quantilesSelect needs.
var percentileLevels = [3]float64{0.50, 0.95, 0.99}

// percentiles returns the exact P50, P95 and P99 of xs in one partition
// pass (xs is partially reordered, values preserved).
func percentiles(xs []float64) (p50, p95, p99 float64) {
	var out [3]float64
	quantilesSelect(xs, percentileLevels[:], out[:])
	return out[0], out[1], out[2]
}

// quantilesSelect writes the exact interpolated qs[i]-quantile of xs to
// out[i], reordering xs in place. The levels must be non-decreasing: each
// order statistic is selected in the suffix right of the previous one,
// which quickselect has already partitioned off, so P95 and P99 cost a
// selection over half and a twentieth of the slab instead of two more
// over all of it, and each value is the same order statistic a full sort
// would give, bit for bit.
func quantilesSelect(xs, qs, out []float64) {
	n := len(xs)
	from := 0 // xs[:from] holds order statistics already in final position
	for i, q := range qs {
		if math.IsNaN(q) || q < 0 || q > 1 {
			panic("reqsim: Quantile requires q in [0,1]")
		}
		if n == 0 {
			out[i] = 0
			continue
		}
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		var vlo float64
		if lo >= from {
			vlo = selectK(xs[from:], lo-from)
			from = lo + 1
		} else {
			// lo == from-1: the previous level selected this statistic.
			vlo = xs[lo]
		}
		if lo == hi {
			out[i] = vlo
			continue
		}
		// After selecting lo every element right of lo is >= the lo-th
		// order statistic, so the (lo+1)-th is the minimum of that suffix.
		vhi := xs[lo+1]
		for _, v := range xs[lo+2:] {
			if v < vhi {
				vhi = v
			}
		}
		frac := pos - float64(lo)
		// Identical interpolation expression to stats.Quantile, so the
		// property test can require bit equality, not tolerance.
		out[i] = vlo*(1-frac) + vhi*frac
	}
}

// selectK partitions xs so xs[k] is the k-th order statistic, everything
// left of k is <= it and everything right is >= it, and returns xs[k].
// Iterative quickselect with median-of-three pivots — deterministic (no
// RNG), O(n) expected, and allocation-free.
func selectK(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot, also sorting the three probes.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		if hi-lo < 3 {
			return xs[k]
		}
		pivot := xs[mid]
		// Hoare partition.
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}
