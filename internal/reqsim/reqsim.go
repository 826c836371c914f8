// Package reqsim is the repository's M/G/1/PS (processor-sharing)
// simulator: a request-level discrete-event engine built on the
// fair-share clock, engineered like the GSD and geo hot paths so a fleet
// slot can be replayed at request granularity — millions of simulated
// requests per second on one core, zero allocations per event in steady
// state. Its reference is a small closure-based oracle kept in the
// package's tests (oracle_test.go), which the engine matches bit for bit
// on every Poisson configuration (TestBitParityWithOracle).
//
// Design, mirroring the repository's hot-path rules:
//
//   - Job records indexed by dense int32 IDs. A job is a row in the
//     arrival-stamp slab, recycled through a free list — no per-request
//     heap objects, no pointers for the GC to trace.
//   - A monotone radix heap over the completion levels' float64 bit
//     patterns (heap.go): buckets are linked lists threaded through
//     per-job-id slabs, each caching its minimum, so a completion costs
//     amortized O(1) even when bursty arrivals queue thousands of jobs
//     (fleet-replay: ~3.7k deep at a mean pop, ~10.5k at peak), with zero
//     steady-state allocations.
//   - Closure-free samplers (sampler.go): a ServiceSampler is a tagged
//     value dispatched through one switch, drawing the *exact* RNG
//     sequence of the oracle's closure samplers — which is what lets the
//     parity tests demand bit-for-bit equality with the oracle.
//   - Deterministic sharding (shard.go): per-shard seeds derived by a
//     splitmix64-style stride, shards fanned over workpool.FanID with
//     per-worker engines, results merged in shard index order — the same
//     worker-count-invariance contract as geo.Fleet, pinned under -race.
//
// Each request follows the journey ARRIVED → QUEUED → SCHEDULED → FINISHED
// (under processor sharing, admission and scheduling coincide; the
// transitions are counted separately so the lifecycle survives a future
// non-PS discipline) or ARRIVED → DROPPED when a MaxJobs cap rejects it.
//
// The package exists to make the paper's delay cost d(λ,x) = λ/(x−λ)
// (Eq. 4) a regression-tested claim: the Poisson arms reproduce it within
// tolerance, and the heavy-tailed (ParetoService) and bursty
// (OnOffArrivals) arms measure exactly how wrong it becomes when the
// insensitivity argument's assumptions break.
package reqsim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// ErrBadConfig is the sentinel every validation failure wraps.
var ErrBadConfig = errors.New("reqsim: invalid configuration")

// Config configures one PS simulation run. The zero-valued Arrivals is
// Poisson at ArrivalRPS — the oracle-compatible path; OnOffArrivals selects
// the bursty arm (with ArrivalRPS left 0).
type Config struct {
	ArrivalRPS float64        // λ: Poisson arrival rate (Poisson path only)
	Arrivals   ArrivalProcess // zero value: Poisson(ArrivalRPS)
	ServiceRPS float64        // x: server speed in units of work per second
	Service    ServiceSampler // requirement distribution (mean 1 by convention)
	Horizon    float64        // simulated seconds
	Warmup     float64        // seconds discarded before measuring
	Seed       uint64
	MaxJobs    int // optional cap on in-system jobs (0 = unlimited); extra arrivals drop
}

// Validate rejects NaN/negative rates, empty horizons, Warmup ≥ Horizon,
// invalid samplers and unstable (ρ = λ·E[S]/x ≥ 1) uncapped systems. On
// the bursty arm stability is judged on the time-averaged arrival rate.
func (cfg *Config) Validate() error {
	bursty := cfg.Arrivals.Bursty()
	switch {
	case math.IsNaN(cfg.ArrivalRPS) || math.IsInf(cfg.ArrivalRPS, 0) || cfg.ArrivalRPS < 0:
		return fmt.Errorf("%w: ArrivalRPS %v must be finite and >= 0", ErrBadConfig, cfg.ArrivalRPS)
	case bursty && cfg.ArrivalRPS != 0:
		return fmt.Errorf("%w: ArrivalRPS %v conflicts with OnOffArrivals (leave it 0)", ErrBadConfig, cfg.ArrivalRPS)
	case math.IsNaN(cfg.ServiceRPS) || math.IsInf(cfg.ServiceRPS, 0) || cfg.ServiceRPS <= 0:
		return fmt.Errorf("%w: ServiceRPS %v must be finite and > 0", ErrBadConfig, cfg.ServiceRPS)
	case !cfg.Service.Valid():
		return fmt.Errorf("%w: Service sampler not built by a constructor", ErrBadConfig)
	case math.IsNaN(cfg.Horizon) || math.IsInf(cfg.Horizon, 0) || cfg.Horizon <= 0:
		return fmt.Errorf("%w: Horizon %v must be finite and > 0", ErrBadConfig, cfg.Horizon)
	case math.IsNaN(cfg.Warmup) || cfg.Warmup < 0 || cfg.Warmup >= cfg.Horizon:
		return fmt.Errorf("%w: Warmup %v must be in [0, Horizon %v)", ErrBadConfig, cfg.Warmup, cfg.Horizon)
	case cfg.MaxJobs < 0:
		return fmt.Errorf("%w: MaxJobs %d must be >= 0", ErrBadConfig, cfg.MaxJobs)
	}
	if cfg.MaxJobs == 0 {
		mean := cfg.Arrivals.MeanRate(cfg.ArrivalRPS)
		if rho := mean * cfg.Service.Mean() / cfg.ServiceRPS; rho >= 1 {
			return fmt.Errorf("%w: unstable system (mean utilization %v >= 1) without a MaxJobs cap",
				ErrBadConfig, rho)
		}
	}
	return nil
}

// Result summarizes a run. The first five fields match the test oracle's
// result bit for bit on identical Poisson configs. The raw sums
// (AreaJobsSec, MeasuredSec, BusySec, RespSumSec) are exported so sharded
// runs can merge results without losing bits — every mean above them is a
// ratio of two sums.
type Result struct {
	MeanJobs     float64 // time-averaged number in system (compare to λ/(x−λ))
	MeanRespSec  float64 // mean response time of completed jobs
	Completed    int     // completions of jobs arriving after warmup
	Dropped      int
	UtilFraction float64 // measured busy fraction (compare to ρ)

	// Journey accounting over the whole run (warmup included).
	Arrived     int   // arrival events (Admitted + Dropped)
	Admitted    int   // jobs that entered the system (QUEUED)
	Scheduled   int   // jobs that began PS service (== Admitted under PS)
	Finished    int   // all completions, including warmup-period jobs
	Events      int64 // processed events (arrivals + completions)
	MaxInSystem int   // peak concurrent jobs

	// Exact response-time percentiles of the measured completions; zero
	// when the run was driven without a SampleTape.
	P50Sec, P95Sec, P99Sec float64

	// Mergeable raw sums (post-warmup).
	AreaJobsSec float64 // ∫ n dt
	MeasuredSec float64
	BusySec     float64
	RespSumSec  float64
}

// Engine is a reusable request-level simulator: all state lives in slabs
// that survive Run calls, so a warm engine simulates an entire slot —
// millions of requests — without a single allocation. Engines are not safe
// for concurrent use; the Pool gives each worker its own.
type Engine struct {
	rng  *stats.RNG
	heap radixHeap

	// Arrival stamps indexed by dense job id. (The completion level lives
	// in the heap's key slab, indexed by the same ids.)
	arrivedAt []float64
	free      []int32 // recycled ids

	// On/off arrival phase (bursty arm only).
	phaseOn  bool
	switchAt float64
}

// NewEngine returns an empty engine. Slabs grow on first use and are
// reused by every subsequent Run.
func NewEngine() *Engine { return &Engine{rng: stats.NewRNG(0)} }

// Simulate is the one-shot convenience wrapper: a fresh engine, one run.
// Hot paths (the slot replayers, the bench loop) hold an Engine instead.
func Simulate(cfg Config) (Result, error) {
	return NewEngine().Run(cfg, nil)
}

// Run executes one simulation. A non-nil tape is reset, receives every
// measured response time, and yields the Result's exact percentiles. The
// engine re-arms itself (RNG reseed, slab truncation) so repeated Runs are
// deterministic functions of cfg alone.
func (e *Engine) Run(cfg Config, tape *SampleTape) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	e.rng.Reseed(cfg.Seed)
	e.heap.reset()
	e.arrivedAt = e.arrivedAt[:0]
	e.free = e.free[:0]
	if cfg.MaxJobs > 0 {
		e.heap.grow(cfg.MaxJobs)
	}
	if tape != nil {
		tape.Reset()
	}

	var (
		res      Result
		now      float64 // wall clock
		fair     float64 // fair-share clock F(t)
		areaJobs float64 // ∫ n dt after warmup
		busyTime float64 // time with n > 0 after warmup
		respSum  float64
		measured float64 // time measured
	)
	rng := e.rng
	bursty := cfg.Arrivals.Bursty()
	nextArrival := math.Inf(1)
	if bursty {
		e.phaseOn = true
		e.switchAt = rng.Exponential(cfg.Arrivals.swOn)
		nextArrival = e.drawArrival(0, cfg.Arrivals)
	} else if cfg.ArrivalRPS > 0 {
		nextArrival = rng.Exponential(cfg.ArrivalRPS)
	}

	// advance moves the wall clock to `to`, accumulating the time-average
	// integrals and the fair-share clock. The expressions are verbatim from
	// the test oracle — the parity tests require bit-equal accumulation
	// order, not just the same mathematics.
	advance := func(to float64) {
		dt := to - now
		if dt < 0 {
			dt = 0
		}
		n := float64(e.heap.len())
		if now >= cfg.Warmup {
			areaJobs += n * dt
			measured += dt
			if n > 0 {
				busyTime += dt
			}
		} else if to > cfg.Warmup {
			post := to - cfg.Warmup
			areaJobs += n * post
			measured += post
			if n > 0 {
				busyTime += post
			}
		}
		if n > 0 {
			fair += dt * cfg.ServiceRPS / n
		}
		now = to
	}

	for now < cfg.Horizon {
		// Next completion in wall-clock terms.
		nextDone := math.Inf(1)
		if n := e.heap.len(); n > 0 {
			key, _ := e.heap.min()
			nextDone = now + (key-fair)*float64(n)/cfg.ServiceRPS
		}
		// Both operands are finite or +Inf, never NaN or -0, so a plain
		// comparison gives math.Min's bits without its out-of-line call.
		next := nextArrival
		if nextDone < next {
			next = nextDone
		}
		if next > cfg.Horizon {
			advance(cfg.Horizon)
			break
		}
		advance(next)
		if next == nextDone && e.heap.len() > 0 {
			// FINISHED: retire the job, recycle its id.
			_, id := e.heap.popMin()
			res.Events++
			res.Finished++
			a := e.arrivedAt[id]
			e.free = append(e.free, id)
			if a >= cfg.Warmup {
				res.Completed++
				respSum += now - a
				if tape != nil {
					tape.Observe(now - a)
				}
			}
			continue
		}
		// ARRIVED.
		res.Events++
		res.Arrived++
		if cfg.MaxJobs > 0 && e.heap.len() >= cfg.MaxJobs {
			res.Dropped++ // ARRIVED → DROPPED
		} else {
			// ARRIVED → QUEUED → SCHEDULED: under PS both transitions
			// happen at the arrival instant.
			id := e.admit(now)
			res.Admitted++
			res.Scheduled++
			e.heap.push(fair+cfg.Service.sample(rng), id)
			if n := e.heap.len(); n > res.MaxInSystem {
				res.MaxInSystem = n
			}
		}
		if bursty {
			nextArrival = e.drawArrival(now, cfg.Arrivals)
		} else {
			nextArrival = now + rng.Exponential(cfg.ArrivalRPS)
		}
	}

	if measured > 0 {
		res.MeanJobs = areaJobs / measured
		res.UtilFraction = busyTime / measured
	}
	if res.Completed > 0 {
		res.MeanRespSec = respSum / float64(res.Completed)
	}
	res.AreaJobsSec = areaJobs
	res.MeasuredSec = measured
	res.BusySec = busyTime
	res.RespSumSec = respSum
	if tape != nil && tape.N() > 0 {
		res.P50Sec, res.P95Sec, res.P99Sec = percentiles(tape.buf)
	}
	return res, nil
}

// admit allocates a dense job id for an arrival at `now`, recycling the
// free list before growing the arrival-stamp slab.
func (e *Engine) admit(now float64) int32 {
	if n := len(e.free); n > 0 {
		id := e.free[n-1]
		e.free = e.free[:n-1]
		e.arrivedAt[id] = now
		return id
	}
	id := int32(len(e.arrivedAt))
	e.arrivedAt = append(e.arrivedAt, now)
	return id
}

// drawArrival samples the next on/off arrival after `now`: draw an
// exponential at the current phase rate; if it lands past the phase switch,
// memorylessness lets us discard it, jump to the switch and resample.
func (e *Engine) drawArrival(now float64, a ArrivalProcess) float64 {
	rng := e.rng
	for {
		rate := a.rateOn
		if !e.phaseOn {
			rate = a.rateOff
		}
		if rate > 0 {
			t := now + rng.Exponential(rate)
			if t <= e.switchAt {
				return t
			}
		}
		now = e.switchAt
		e.phaseOn = !e.phaseOn
		sr := a.swOn
		if !e.phaseOn {
			sr = a.swOff
		}
		e.switchAt = now + rng.Exponential(sr)
	}
}

// AnalyticMeanJobs returns the paper's Eq. (4) prediction λ/(x−λ) (mean
// service requirement 1, so ρ = λ/x), the number every empirical arm is
// compared to. It returns +Inf at or beyond saturation.
func AnalyticMeanJobs(arrivalRPS, serviceRPS float64) float64 {
	if arrivalRPS >= serviceRPS {
		return math.Inf(1)
	}
	return arrivalRPS / (serviceRPS - arrivalRPS)
}
