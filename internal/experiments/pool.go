package experiments

import (
	"runtime"
	"time"

	"repro/internal/telemetry"
	"repro/internal/workpool"
)

// workers resolves the configured fan-out: Workers > 0 is taken literally
// (1 = strictly sequential), 0 defaults to all cores. Negative values never
// reach this point — fill() rejects them with an explicit cliutil error at
// every driver entry — so the `> 0` check here is only the 0-means-default
// rule, not a silent clamp.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// pool returns the experiment pool's telemetry instruments, registered
// under the "pool" prefix of the configured registry, or nil when
// telemetry is disabled. Registration is idempotent, so every sweep in a
// run folds into the same instruments.
func (c Config) pool() *telemetry.PoolMetrics {
	if c.Telemetry == nil {
		return nil
	}
	return telemetry.NewPoolMetrics(c.Telemetry, "pool")
}

// mapIndexed evaluates fn over the indices [0, n) on a bounded pool of
// workers (workpool.Fan) and returns the results in index order, so the
// output — and any rendering done from it — is byte-identical whatever the
// worker count. Jobs must be independent: each writes only its own slot.
// Every job runs; on failure the lowest-index error is returned (the one
// the sequential path would have hit first), keeping error reporting
// deterministic too. pm, when non-nil, observes job progress and per-job
// wall time; it never affects results.
func mapIndexed[T any](workers int, pm *telemetry.PoolMetrics, n int, fn func(int) (T, error)) ([]T, error) {
	call := fn
	if pm != nil {
		call = func(i int) (T, error) {
			pm.StartJob()
			start := time.Now()
			v, err := fn(i)
			pm.EndJob(err != nil, time.Since(start).Seconds())
			return v, err
		}
	}
	pm.SetWorkers(max(1, min(workers, n)))
	out := make([]T, n)
	errs := make([]error, n)
	workpool.Fan(workers, n, func(i int) { out[i], errs[i] = call(i) })
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
