package reqsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

func shardCfg() Config {
	return Config{
		ArrivalRPS: 6, ServiceRPS: 10, Service: ExponentialService(1),
		Horizon: 1500, Warmup: 100, Seed: 17,
	}
}

// TestRunShardedSingleShardParity pins the reference-path contract:
// one shard through the pool is bit-identical to a plain Engine.Run —
// every field, including the exact percentiles.
func TestRunShardedSingleShardParity(t *testing.T) {
	cfg := shardCfg()
	var tape SampleTape
	want, err := NewEngine().Run(cfg, &tape)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewPool(1).RunSharded(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("RunSharded(cfg, 1) diverged from Run:\nsharded %+v\nplain   %+v", got, want)
	}
}

// TestRunShardedWorkerInvariance is the determinism contract of every
// parallel hot path in this repository, applied to request shards: the
// merged result is a function of (Config, shards) alone. 1, 4 and 32
// workers must produce identical bits — run it under -race and the
// schedule-independence claim is checked as well.
func TestRunShardedWorkerInvariance(t *testing.T) {
	cfg := shardCfg()
	const shards = 24
	ref, err := NewPool(1).RunSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 32} {
		pool := NewPool(workers)
		for rep := 0; rep < 3; rep++ { // repeat to vary goroutine schedules
			got, err := pool.RunSharded(cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Errorf("workers=%d rep=%d diverged from sequential reference:\ngot %+v\nref %+v",
					workers, rep, got, ref)
			}
		}
	}
}

// TestRunShardedGoldenHash pins the sharded replay absolutely: 16 shards
// of an M/M/1/PS queue at ρ = 0.7, with every field of the merged Result
// folded into FNV-1a as little-endian IEEE-754 bits. Any drift in the
// event loop, the RNG draw order or the shard merge changes the digest;
// the worker-invariance test above makes it a function of the config alone.
func TestRunShardedGoldenHash(t *testing.T) {
	const want = "fnv1a:e87ab8489da34002"
	r, err := NewPool(2).RunSharded(Config{
		ArrivalRPS: 7, ServiceRPS: 10, Service: ExponentialService(1),
		Horizon: 3000, Warmup: 100, Seed: 2012,
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []float64{float64(r.Arrived), float64(r.Admitted), float64(r.Dropped),
		float64(r.Completed), float64(r.Events), float64(r.MaxInSystem),
		r.MeanJobs, r.MeanRespSec, r.UtilFraction, r.P50Sec, r.P95Sec, r.P99Sec,
		r.AreaJobsSec, r.MeasuredSec, r.BusySec, r.RespSumSec} {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	if got := fmt.Sprintf("fnv1a:%016x", h.Sum64()); got != want {
		t.Errorf("sharded result hash = %s, want %s (event loop, RNG order or merge drifted)", got, want)
	}
}

// TestRunShardedMergeSemantics checks the merged aggregates against the
// per-shard runs they were folded from.
func TestRunShardedMergeSemantics(t *testing.T) {
	cfg := shardCfg()
	const shards = 5
	merged, err := NewPool(2).RunSharded(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	var arrived, completed int
	var area, measured float64
	maxPeak := 0
	for i := 0; i < shards; i++ {
		sc := cfg
		sc.Seed = cfg.Seed + uint64(i)*shardSeedStride
		r, err := eng.Run(sc, nil)
		if err != nil {
			t.Fatal(err)
		}
		arrived += r.Arrived
		completed += r.Completed
		area += r.AreaJobsSec
		measured += r.MeasuredSec
		if r.MaxInSystem > maxPeak {
			maxPeak = r.MaxInSystem
		}
	}
	if merged.Arrived != arrived || merged.Completed != completed {
		t.Errorf("merged counters (%d, %d) != manual sums (%d, %d)",
			merged.Arrived, merged.Completed, arrived, completed)
	}
	if merged.AreaJobsSec != area || merged.MeasuredSec != measured {
		t.Errorf("merged sums diverge from shard-order manual sums")
	}
	if merged.MaxInSystem != maxPeak {
		t.Errorf("merged MaxInSystem %d != max over shards %d", merged.MaxInSystem, maxPeak)
	}
	if want := area / measured; merged.MeanJobs != want {
		t.Errorf("merged MeanJobs %v != pooled ratio %v", merged.MeanJobs, want)
	}
}

// TestRunShardedPoolReuse: a pool must give identical bits run after run —
// engine and tape reuse cannot leak state across calls.
func TestRunShardedPoolReuse(t *testing.T) {
	cfg := shardCfg()
	pool := NewPool(4)
	a, err := pool.RunSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave a different shape to dirty every slab.
	if _, err := pool.RunSharded(Config{
		ArrivalRPS: 30, ServiceRPS: 10, Service: HyperexpService(1, 0.2),
		Horizon: 300, Warmup: 10, Seed: 3, MaxJobs: 12,
	}, 3); err != nil {
		t.Fatal(err)
	}
	b, err := pool.RunSharded(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("pool reuse changed results:\nfirst %+v\nagain %+v", a, b)
	}
}

func TestRunShardedRejectsBadInput(t *testing.T) {
	if _, err := NewPool(2).RunSharded(shardCfg(), 0); err == nil {
		t.Error("shards=0 should be rejected")
	}
	bad := shardCfg()
	bad.ServiceRPS = -1
	if _, err := NewPool(2).RunSharded(bad, 4); err == nil {
		t.Error("invalid config should be rejected before fan-out")
	}
}

// BenchmarkReqsimSharded prices the sharded path at fleet shape: 16
// replica queues per call, matching a modest Active count.
func BenchmarkReqsimSharded(b *testing.B) {
	cfg := Config{
		ArrivalRPS: 7, ServiceRPS: 10, Service: ExponentialService(1),
		Horizon: 600, Warmup: 30, Seed: 1,
	}
	pool := NewPool(1) // single-core host: measure the sequential path
	if _, err := pool.RunSharded(cfg, 16); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := pool.RunSharded(cfg, 16)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)/sec, "events/s")
	}
}
