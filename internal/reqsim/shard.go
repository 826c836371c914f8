package reqsim

import (
	"fmt"

	"repro/internal/workpool"
)

// shardSeedStride decorrelates per-shard RNG streams: shard i runs with
// seed cfg.Seed + i·stride (shard 0 keeps cfg.Seed, which is what makes a
// one-shard RunSharded bit-identical to a plain Run). The constant is the
// same splitmix64 increment the geo fleet uses for per-site seeds.
const shardSeedStride = 0x9E3779B97F4A7C15

// Pool runs many independent shard replicas of one scenario across a
// bounded worker fan-out — the request-level analogue of the geo fleet's
// per-site parallel step, with the same determinism contract: each shard
// writes only its own result slot, per-worker engines are reused across
// shards, and the merge folds in shard index order, so the outcome is a
// function of (Config, shards) alone — never of the worker count or the
// goroutine schedule. workers ≤ 1 degrades to the sequential reference
// path, which the parity tests pin bit-for-bit against Engine.Run.
//
// A shard is an independent replica of the configured queue. That is
// exactly the shape of the paper's homogeneous fleet: a slot with `Active`
// servers at per-server rate λ/Active is `Active` independent M/G/1/PS
// systems, one shard each.
type Pool struct {
	workers int
	engines []*Engine    // one per worker, reused across shards
	tapes   []SampleTape // one per shard, merged in shard order
	results []Result     // one per shard
	merged  []float64    // reused slab for the merged percentile pass
}

// NewPool returns a pool fanning over up to `workers` goroutines
// (values < 1 mean 1: the sequential reference path).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// RunSharded simulates `shards` independent replicas of cfg (shard i
// seeded cfg.Seed + i·stride) and merges them into one Result:
//
//   - counters and raw sums (AreaJobsSec, MeasuredSec, BusySec,
//     RespSumSec, Events, Arrived, …) are summed in shard index order;
//   - MeanJobs, MeanRespSec and UtilFraction are recomputed as ratios of
//     the merged sums — so MeanJobs is the pooled *per-shard* mean number
//     in system (multiply by shards for the fleet total);
//   - MaxInSystem is the max over shards (a per-replica peak);
//   - percentiles are exact over the union of all shard tapes.
//
// RunSharded(cfg, 1) is bit-identical to Engine.Run(cfg), and the result
// is independent of the pool's worker count — both properties are pinned
// by tests (the latter under the race detector).
func (p *Pool) RunSharded(cfg Config, shards int) (Result, error) {
	if shards < 1 {
		return Result{}, fmt.Errorf("%w: shards %d must be >= 1", ErrBadConfig, shards)
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	workers := p.workers
	if workers > shards {
		workers = shards
	}
	for len(p.engines) < workers {
		p.engines = append(p.engines, NewEngine())
	}
	if cap(p.tapes) < shards {
		p.tapes = append(make([]SampleTape, 0, shards), p.tapes...)
	}
	p.tapes = p.tapes[:shards]
	if cap(p.results) < shards {
		p.results = make([]Result, shards)
	}
	p.results = p.results[:shards]

	workpool.FanID(workers, shards, func(worker, i int) {
		shardCfg := cfg
		shardCfg.Seed = cfg.Seed + uint64(i)*shardSeedStride
		// cfg already validated; a per-shard error is impossible here, and
		// swallowing it would corrupt the merge — fail loudly instead.
		res, err := p.engines[worker].Run(shardCfg, &p.tapes[i])
		if err != nil {
			panic(fmt.Sprintf("reqsim: shard %d failed after validation: %v", i, err))
		}
		p.results[i] = res
	})

	// Merge in shard index order: deterministic regardless of which worker
	// ran which shard.
	var out Result
	p.merged = p.merged[:0]
	for i := range p.results {
		r := &p.results[i]
		out.Arrived += r.Arrived
		out.Admitted += r.Admitted
		out.Scheduled += r.Scheduled
		out.Finished += r.Finished
		out.Completed += r.Completed
		out.Dropped += r.Dropped
		out.Events += r.Events
		if r.MaxInSystem > out.MaxInSystem {
			out.MaxInSystem = r.MaxInSystem
		}
		out.AreaJobsSec += r.AreaJobsSec
		out.MeasuredSec += r.MeasuredSec
		out.BusySec += r.BusySec
		out.RespSumSec += r.RespSumSec
		p.merged = p.tapes[i].AppendTo(p.merged)
	}
	if out.MeasuredSec > 0 {
		out.MeanJobs = out.AreaJobsSec / out.MeasuredSec
		out.UtilFraction = out.BusySec / out.MeasuredSec
	}
	if out.Completed > 0 {
		out.MeanRespSec = out.RespSumSec / float64(out.Completed)
	}
	if len(p.merged) > 0 {
		out.P50Sec, out.P95Sec, out.P99Sec = percentiles(p.merged)
	}
	return out, nil
}
