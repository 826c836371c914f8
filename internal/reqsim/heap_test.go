package reqsim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
)

// queueChecker drives a radixHeap beside a sorted reference, handing out
// job ids the way Engine does (a free list first, then the next dense id)
// and checking the queue's length and min() after every operation and
// every popMin's (key, id) against the reference's minimum.
type queueChecker struct {
	tb   testing.TB
	h    radixHeap
	ref  []queueEntry // pending entries, sorted by key
	key  []float64    // key of each live job id
	live []bool
	free []int32
	last float64 // largest popped key: the base of the next pushes
	cap  int     // ids below cap must not reallocate the slabs (after grow)
}

type queueEntry struct {
	key float64
	id  int32
}

// push queues key under a fresh job id.
func (c *queueChecker) push(key float64) {
	var id int32
	if n := len(c.free); n > 0 {
		id = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		id = int32(len(c.key))
		c.key = append(c.key, 0)
		c.live = append(c.live, false)
	}
	before := cap(c.h.key)
	c.h.push(key, id)
	if int(id) < c.cap && cap(c.h.key) != before {
		c.tb.Fatalf("push of id %d reallocated slabs pre-sized to %d", id, c.cap)
	}
	c.key[id], c.live[id] = key, true
	i := sort.Search(len(c.ref), func(i int) bool { return c.ref[i].key > key })
	c.ref = append(c.ref, queueEntry{})
	copy(c.ref[i+1:], c.ref[i:])
	c.ref[i] = queueEntry{key, id}
	c.check()
}

// pushAbove queues a key delta above the last pop, as an arrival at a
// fair-share level at or past the last completion does.
func (c *queueChecker) pushAbove(delta float64) { c.push(c.last + delta) }

// pushBelow queues a key `ulps` steps below the last pop (never below 0),
// as fair + S can land when fair was rounded at a completion.
func (c *queueChecker) pushBelow(ulps int) {
	k := c.last
	for i := 0; i < ulps && k > 0; i++ {
		k = math.Nextafter(k, 0)
	}
	c.push(k)
}

func (c *queueChecker) pop() {
	if len(c.ref) == 0 {
		return
	}
	key, id := c.h.popMin()
	want := c.ref[0].key
	if key != want || int(id) >= len(c.live) || !c.live[id] || c.key[id] != key {
		c.tb.Fatalf("popMin = (%v, %d), want key %v held by a live id", key, id, want)
	}
	i := sort.Search(len(c.ref), func(i int) bool { return c.ref[i].key >= key })
	for c.ref[i].id != id {
		i++
	}
	c.ref = append(c.ref[:i], c.ref[i+1:]...)
	c.live[id] = false
	c.free = append(c.free, id)
	if key > c.last {
		c.last = key
	}
	c.check()
}

// reset empties the queue the way Engine.Run re-arms it: ids restart at 0.
func (c *queueChecker) reset() {
	c.h.reset()
	c.ref, c.key, c.live, c.free = c.ref[:0], c.key[:0], c.live[:0], c.free[:0]
	c.last, c.cap = 0, 0
	c.check()
}

// grow pre-sizes the queue for n job ids, as Engine.Run does for MaxJobs.
func (c *queueChecker) grow(n int) {
	c.h.grow(n)
	if cap(c.h.key) < n || cap(c.h.next) < n {
		c.tb.Fatalf("grow(%d) left capacities %d, %d", n, cap(c.h.key), cap(c.h.next))
	}
	if n > c.cap {
		c.cap = n
	}
	c.check()
}

func (c *queueChecker) check() {
	if c.h.len() != len(c.ref) {
		c.tb.Fatalf("len = %d, reference holds %d", c.h.len(), len(c.ref))
	}
	if len(c.ref) == 0 {
		return
	}
	key, id := c.h.min()
	if want := c.ref[0].key; key != want || !c.live[id] || c.key[id] != key {
		c.tb.Fatalf("min = (%v, %d), want key %v held by a live id", key, id, want)
	}
}

// drain pops everything, checking the order to the end.
func (c *queueChecker) drain() {
	for len(c.ref) > 0 {
		c.pop()
	}
}

// TestEventQueueMatchesSortedReference drives the engine's event queue
// through random push/pop/min/reset/grow sequences — keys above, at and up
// to 4 ulps below the last pop, ties, queues 10k deep, reuse after reset
// and a MaxJobs-style pre-size — and requires every pop and every min() to
// match a sorted reference exactly.
func TestEventQueueMatchesSortedReference(t *testing.T) {
	rng := stats.NewRNG(26)
	c := &queueChecker{tb: t}
	// delta draws an engine-like key increment: mostly O(1) service
	// requirements, sometimes tiny or huge ones.
	delta := func() float64 {
		switch u := rng.Float64(); {
		case u < 0.05:
			return rng.Float64() * 1e-12
		case u < 0.10:
			return rng.Float64() * 1e6
		default:
			return rng.Exponential(1)
		}
	}
	for round := 0; round < 4; round++ {
		if round%2 == 1 {
			c.grow(1000 * round)
		}
		// Shallow Poisson-like mix, then an ON burst to 10k deep with
		// interleaved pops, then an OFF phase that drains it.
		for i := 0; i < 10000; i++ {
			switch u := rng.Float64(); {
			case u < 0.45:
				c.pushAbove(delta())
			case u < 0.50:
				c.pushBelow(int(rng.Float64() * 5))
			default:
				c.pop()
			}
		}
		for c.h.len() < 10000 {
			switch u := rng.Float64(); {
			case u < 0.70:
				c.pushAbove(delta())
			case u < 0.72:
				c.pushBelow(int(rng.Float64() * 5))
			case u < 0.73 && c.h.len() > 0:
				c.push(c.ref[int(rng.Float64()*float64(len(c.ref)))].key) // a tie
			default:
				c.pop()
			}
		}
		for c.h.len() > 100 {
			if rng.Float64() < 0.2 {
				c.pushAbove(delta())
			} else {
				c.pop()
			}
		}
		if round%3 == 2 {
			c.drain()
		}
		c.reset() // a non-empty queue is re-armed and reused
	}
}

// FuzzEventQueue decodes each byte as one operation on the event queue
// (low 3 bits: the operation; high 5 bits: its argument) and checks every
// pop and min() against the sorted reference.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 8, 16, 4, 4, 4})
	f.Add([]byte{0, 0, 0, 3, 11, 19, 27, 35, 4, 5, 4, 5, 7, 4, 4})
	f.Add([]byte{248, 240, 1, 2, 4, 3, 4, 255, 4, 6, 0, 4, 14, 46, 4})
	f.Add([]byte{6, 2, 10, 18, 26, 4, 7, 7, 4, 4, 4, 4, 30, 1, 4, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := &queueChecker{tb: t}
		for _, b := range ops {
			arg := int(b >> 3)
			switch b & 7 {
			case 0, 1, 2:
				// Increments from 2^-30 to 2^9 above the last pop.
				c.pushAbove(math.Ldexp(float64(arg&7+1), (arg>>3)*12-30))
			case 3:
				c.pushBelow(arg % 5)
			case 4, 5:
				c.pop()
			case 6:
				if arg < 4 {
					c.reset()
				} else {
					c.grow(arg * 37)
				}
			case 7:
				if len(c.ref) > 0 {
					c.push(c.ref[arg%len(c.ref)].key) // a tie
				} else {
					c.push(c.last)
				}
			}
		}
		c.drain()
	})
}
