package reqsim

import (
	"math"
	"math/bits"
)

// radixHeap is the engine's event queue: a monotone radix heap over the
// float64 bit pattern of each pending job's completion level. Keys are
// fair-share levels fair + S with fair non-decreasing and S ≥ 0, so every
// key is a non-negative float, and non-negative floats order exactly like
// their bit patterns read as uint64 — the radix structure works on the
// bits, the comparisons on the floats.
//
// Why not a comparison heap: on the bursty arm the queue is deep — on
// fleet-replay a mean of ~3.7k pending jobs at a pop and a peak of ~10.5k —
// and a 4-ary heap's popMin sifted through ~6 levels of cache-missing
// slabs per completion. Popped keys are (almost) monotone, which a radix
// heap turns into amortized O(1) work per event:
//
//   - last is the bit pattern of the largest key popped so far.
//   - Bucket i ≥ 1 holds the keys above last whose highest bit differing
//     from last is bit i−1. Every key in bucket i is below every key in
//     bucket j > i, and a uint64 occupancy mask plus TrailingZeros64 finds
//     the lowest non-empty bucket. Non-negative keys never differ in the
//     sign bit, so 64 buckets cover them.
//   - Bucket 0 holds the keys ≤ last: exact ties with the last pop, and a
//     key pushed a few ulps below it (fair is rounded at a completion, so
//     fair + S can land just under the level that completed). popMin scans
//     bucket 0 for its true minimum, so pop order is exact without any
//     monotonicity assumption; on fleet-replay no key was ever popped below
//     an earlier pop of the same run (18.6M pops instrumented), so bucket 0
//     holds only ties with the minimum in practice.
//   - Each bucket caches its minimum. When bucket 0 is empty the global
//     minimum is the lowest bucket's cached one; popping it sets last to
//     it and re-buckets the rest of that bucket in one pass, each key
//     landing strictly lower. A key moves down at most 63 times in its
//     life; fleet-replay re-links ~5.2 keys per pop.
//   - min() is the cached (key, id) of the global minimum, so the engine's
//     per-event next-completion probe is two loads even on a shallow
//     Poisson queue.
//
// Buckets are intrusive singly linked lists threaded through slabs indexed
// by the engine's dense job ids — key []float64 and next []int32, 12 bytes
// per job id — so the queue never allocates in steady state: the slabs
// grow amortized to the peak job id and reset keeps them.
//
// popMin returns a minimum key and the id that owns it. Keys are
// continuous draws, so ties are measure-zero and the pop order matches any
// correct min-priority queue — including the test oracle's binary heap —
// bit for bit.
type radixHeap struct {
	key  []float64 // completion level, indexed by job id
	next []int32   // next job id in the same bucket; -1 ends a list

	head   [64]int32   // first job id of each non-empty bucket
	bmin   [64]float64 // minimum key of each non-empty bucket
	bminID [64]int32   // the job id holding bmin
	mask   uint64      // bit i set iff bucket i is non-empty
	last   uint64      // bit pattern of the largest popped key

	n      int     // queued jobs
	minKey float64 // global minimum, valid when n > 0
	minID  int32
}

func (h *radixHeap) len() int { return h.n }

// min returns the queue's minimum key and its job id (n > 0).
func (h *radixHeap) min() (float64, int32) { return h.minKey, h.minID }

// reset empties the queue, keeping the slabs.
func (h *radixHeap) reset() { h.mask, h.last, h.n = 0, 0, 0 }

// grow pre-sizes the slabs for job ids below n.
func (h *radixHeap) grow(n int) {
	if cap(h.key) < n {
		key := make([]float64, len(h.key), n)
		next := make([]int32, len(h.next), n)
		copy(key, h.key)
		copy(next, h.next)
		h.key, h.next = key, next
	}
}

// push queues job id with completion level key ≥ 0.
func (h *radixHeap) push(key float64, id int32) {
	if i := int(id); i >= len(h.key) {
		h.key = append(h.key, make([]float64, i+1-len(h.key))...)
		h.next = append(h.next, make([]int32, i+1-len(h.next))...)
	}
	h.key[id] = key
	h.link(h.bucket(key), key, id)
	if h.n == 0 || key < h.minKey {
		h.minKey, h.minID = key, id
	}
	h.n++
}

// bucket returns the bucket key belongs in relative to last.
func (h *radixHeap) bucket(key float64) int {
	b := math.Float64bits(key)
	if b <= h.last {
		return 0
	}
	return bits.Len64(b ^ h.last)
}

// link prepends id to bucket b, updating the bucket's cached minimum.
func (h *radixHeap) link(b int, key float64, id int32) {
	bit := uint64(1) << uint(b)
	if h.mask&bit == 0 {
		h.mask |= bit
		h.next[id] = -1
		h.bmin[b], h.bminID[b] = key, id
	} else {
		h.next[id] = h.head[b]
		if key < h.bmin[b] {
			h.bmin[b], h.bminID[b] = key, id
		}
	}
	h.head[b] = id
}

// popMin removes and returns the minimum entry (the one min reported).
func (h *radixHeap) popMin() (float64, int32) {
	key, id := h.minKey, h.minID
	h.n--
	if h.mask&1 != 0 {
		// The minimum is in bucket 0 (keys ≤ last): unlink it; last stays.
		prev, j := int32(-1), h.head[0]
		for j != id {
			prev, j = j, h.next[j]
		}
		if prev < 0 {
			h.head[0] = h.next[id]
		} else {
			h.next[prev] = h.next[id]
		}
		if h.head[0] < 0 {
			h.mask &^= 1
		}
	} else {
		// The minimum is the lowest bucket's cached one: it becomes last,
		// and the rest of its bucket moves to strictly lower buckets.
		b := bits.TrailingZeros64(h.mask)
		h.mask &^= 1 << uint(b)
		h.last = math.Float64bits(key)
		for j := h.head[b]; j >= 0; {
			nx := h.next[j]
			if j != id {
				k := h.key[j]
				h.link(h.bucket(k), k, j)
			}
			j = nx
		}
	}
	switch {
	case h.n == 0:
	case h.mask&1 != 0:
		m := h.head[0]
		mk := h.key[m]
		for j := h.next[m]; j >= 0; j = h.next[j] {
			if h.key[j] < mk {
				m, mk = j, h.key[j]
			}
		}
		h.minKey, h.minID = mk, m
	default:
		b := bits.TrailingZeros64(h.mask)
		h.minKey, h.minID = h.bmin[b], h.bminID[b]
	}
	return key, id
}
