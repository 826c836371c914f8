// Package workpool provides the bounded fan-out primitive the repository's
// parallel paths share: run n index-addressed jobs on up to `workers`
// goroutines, each job writing only its own output slot, so the result is
// independent of goroutine scheduling. Its callers are the geo fleet step,
// the reqsim shard pool and fleet replayer, and the experiment sweeps
// (experiments.mapIndexed).
package workpool

import (
	"sync"
	"sync/atomic"
)

// Fan runs job(0..n-1) on up to workers goroutines using an atomic work
// counter. workers <= 1 (or n <= 1) degrades to the plain sequential loop,
// which callers rely on as the bit-for-bit reference path: jobs must write
// only state owned by their index, so the parallel schedule changes timing
// but never results.
func Fan(workers, n int, job func(int)) {
	FanID(workers, n, func(_, i int) { job(i) })
}

// FanID is Fan with the worker identity exposed: job(worker, i) runs with
// worker in [0, effective workers), so callers can address per-worker
// scratch (e.g. a cloned solver instance per goroutine) without locking.
// The sequential path always reports worker 0.
func FanID(workers, n int, job func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			job(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(worker, i)
			}
		}(w)
	}
	wg.Wait()
}
