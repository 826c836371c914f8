package reqsim

// The oracle: a small, obviously-correct event-driven M/G/1/PS
// (processor-sharing) simulator that the engine is parity-tested against
// bit for bit (TestBitParityWithOracle) and benchmarked against
// (BenchmarkReqsimOracle). It lives only in the package's tests.
//
// It uses the same fair-share clock as the engine: under PS every job in
// the system accumulates service at rate x/n(t), so with F(t) defined by
// dF/dt = x/n(t), a job arriving at time a with requirement S completes
// when F reaches F(a) + S. Tracking jobs in a min-heap keyed by that
// completion level makes every event O(log n).
//
// It stays deliberately simple — closure samplers, a binary heap — but not
// wasteful: the job heap is a plain slice (no container/heap interface
// boxing, which allocated one `any` per arrival), and the built-in service
// distributions hoist their parameter arithmetic out of the per-event
// sampling path. TestSimulateAllocsBounded pins the per-run allocation
// count so the oracle benchmark stays honest.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// oracleServiceDist samples i.i.d. service requirements (in units of work; a
// server at rate x completes one unit of work per 1/x seconds — so a
// requirement of 1 at rate 10 takes 100 ms alone, the paper's §5.1 setup).
type oracleServiceDist func(rng *stats.RNG) float64

// oracleExponentialService returns an exponential requirement distribution with
// the given mean. The rate 1/mean is computed once here, not per sample.
func oracleExponentialService(mean float64) oracleServiceDist {
	rate := 1 / mean
	return func(rng *stats.RNG) float64 { return rng.Exponential(rate) }
}

// oracleDeterministicService returns a constant requirement.
func oracleDeterministicService(mean float64) oracleServiceDist {
	return func(*stats.RNG) float64 { return mean }
}

// oracleHyperexpService returns a two-phase hyperexponential requirement with the
// given mean and a coefficient of variation above 1 — a high-variance
// distribution to exercise the PS insensitivity property. p balances the
// two phases (0 < p < 1); phase means are mean/(2p) and mean/(2(1−p)).
// Both phase rates are precomputed, so sampling costs two RNG draws and no
// arithmetic on the hot path.
func oracleHyperexpService(mean, p float64) oracleServiceDist {
	if p <= 0 || p >= 1 {
		panic("reqsim oracle: HyperexpService requires p in (0,1)")
	}
	r1 := 1 / (mean / (2 * p))
	r2 := 1 / (mean / (2 * (1 - p)))
	return func(rng *stats.RNG) float64 {
		if rng.Bernoulli(p) {
			return rng.Exponential(r1)
		}
		return rng.Exponential(r2)
	}
}

// oracleConfig configures one PS simulation run.
type oracleConfig struct {
	ArrivalRPS float64           // λ: Poisson arrival rate
	ServiceRPS float64           // x: server speed in units of work per second
	Service    oracleServiceDist // requirement distribution (mean 1 work-unit by convention)
	Horizon    float64           // simulated seconds
	Warmup     float64           // seconds discarded before measuring
	Seed       uint64
	MaxJobs    int // optional cap on in-system jobs (0 = unlimited); extra arrivals are dropped
}

// errOracleBadConfig is the sentinel every validation failure wraps: test with
// errors.Is(err, errOracleBadConfig); the full message names the offending field.
var errOracleBadConfig = errors.New("reqsim oracle: invalid configuration")

// Validate rejects configurations that would silently simulate a
// nonsensical, unstable or empty system. Every error wraps errOracleBadConfig and
// names the field, so callers can propagate it verbatim.
func (cfg *oracleConfig) Validate() error {
	switch {
	case math.IsNaN(cfg.ArrivalRPS) || math.IsInf(cfg.ArrivalRPS, 0) || cfg.ArrivalRPS < 0:
		return fmt.Errorf("%w: ArrivalRPS %v must be finite and >= 0", errOracleBadConfig, cfg.ArrivalRPS)
	case math.IsNaN(cfg.ServiceRPS) || math.IsInf(cfg.ServiceRPS, 0) || cfg.ServiceRPS <= 0:
		return fmt.Errorf("%w: ServiceRPS %v must be finite and > 0", errOracleBadConfig, cfg.ServiceRPS)
	case cfg.Service == nil:
		return fmt.Errorf("%w: nil Service distribution", errOracleBadConfig)
	case math.IsNaN(cfg.Horizon) || math.IsInf(cfg.Horizon, 0) || cfg.Horizon <= 0:
		return fmt.Errorf("%w: Horizon %v must be finite and > 0", errOracleBadConfig, cfg.Horizon)
	case math.IsNaN(cfg.Warmup) || cfg.Warmup < 0 || cfg.Warmup >= cfg.Horizon:
		return fmt.Errorf("%w: Warmup %v must be in [0, Horizon %v)", errOracleBadConfig, cfg.Warmup, cfg.Horizon)
	case cfg.MaxJobs < 0:
		return fmt.Errorf("%w: MaxJobs %d must be >= 0", errOracleBadConfig, cfg.MaxJobs)
	case cfg.MaxJobs == 0 && cfg.ArrivalRPS >= cfg.ServiceRPS:
		// The oracle assumes mean-1 requirements, so ρ = λ/x (the engine
		// judges ρ = λ·E[S]/x). An uncapped queue at ρ ≥ 1 has
		// no steady state — the "measurement" would be an artifact of the
		// horizon. A MaxJobs cap makes the system finite and is allowed.
		return fmt.Errorf("%w: unstable system (ArrivalRPS %v >= ServiceRPS %v, utilization >= 1) without a MaxJobs cap",
			errOracleBadConfig, cfg.ArrivalRPS, cfg.ServiceRPS)
	}
	return nil
}

// oracleResult summarizes a run.
type oracleResult struct {
	MeanJobs     float64 // time-averaged number in system (compare to λ/(x−λ))
	MeanRespSec  float64 // mean response time of completed jobs
	Completed    int
	Dropped      int
	UtilFraction float64 // measured busy fraction (compare to ρ = λ·E[S]/x)
}

// oracleJob is one in-system customer keyed by the fair-share level at which it
// finishes.
type oracleJob struct {
	doneAt  float64 // F level at completion
	arrival float64 // wall-clock arrival time
}

// oracleJobHeap is a plain binary min-heap on doneAt. It deliberately does not
// implement container/heap: the interface's Push(any) boxes every job into
// an interface value, one heap allocation per arrival — measurable noise in
// an oracle that exists to calibrate benchmarks. Push/pop sift exactly as
// container/heap does, so the event order is unchanged.
type oracleJobHeap []oracleJob

func (h *oracleJobHeap) push(j oracleJob) {
	*h = append(*h, j)
	s := *h
	// Sift up.
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].doneAt <= s[i].doneAt {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

func (h *oracleJobHeap) popMin() oracleJob {
	s := *h
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		m := left
		if right := left + 1; right < n && s[right].doneAt < s[left].doneAt {
			m = right
		}
		if s[i].doneAt <= s[m].doneAt {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// oracleSimulate runs the event-driven M/G/1/PS simulation.
func oracleSimulate(cfg oracleConfig) (oracleResult, error) {
	if err := cfg.Validate(); err != nil {
		return oracleResult{}, err
	}
	rng := stats.NewRNG(cfg.Seed)

	var (
		now      float64 // wall clock
		fair     float64 // fair-share clock F(t)
		h        oracleJobHeap
		res      oracleResult
		areaJobs float64 // ∫ n dt after warmup
		busyTime float64 // time with n > 0 after warmup
		respSum  float64
		measured float64 // time measured
	)
	nextArrival := now
	if cfg.ArrivalRPS > 0 {
		nextArrival = now + rng.Exponential(cfg.ArrivalRPS)
	} else {
		nextArrival = math.Inf(1)
	}

	advance := func(to float64) {
		dt := to - now
		if dt < 0 {
			dt = 0
		}
		n := float64(len(h))
		if now >= cfg.Warmup {
			areaJobs += n * dt
			measured += dt
			if n > 0 {
				busyTime += dt
			}
		} else if to > cfg.Warmup {
			// Split the interval at the warmup boundary.
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
		if len(h) > 0 {
			nextDone = now + (h[0].doneAt-fair)*float64(len(h))/cfg.ServiceRPS
		}
		next := math.Min(nextArrival, nextDone)
		if next > cfg.Horizon {
			advance(cfg.Horizon)
			break
		}
		advance(next)
		if next == nextDone && len(h) > 0 {
			j := h.popMin()
			if j.arrival >= cfg.Warmup {
				res.Completed++
				respSum += now - j.arrival
			}
			continue
		}
		// Arrival.
		if cfg.MaxJobs > 0 && len(h) >= cfg.MaxJobs {
			res.Dropped++
		} else {
			h.push(oracleJob{doneAt: fair + cfg.Service(rng), arrival: now})
		}
		nextArrival = now + rng.Exponential(cfg.ArrivalRPS)
	}

	if measured > 0 {
		res.MeanJobs = areaJobs / measured
		res.UtilFraction = busyTime / measured
	}
	if res.Completed > 0 {
		res.MeanRespSec = respSum / float64(res.Completed)
	}
	return res, nil
}

// oracleAnalyticMeanJobs returns the M/G/1/PS prediction λ/(x − λ) used by the
// paper's delay cost (Eq. 4), with service requirements of mean 1 work-unit
// so that utilization is ρ = λ/x. It returns +Inf at or beyond saturation.
func oracleAnalyticMeanJobs(arrivalRPS, serviceRPS float64) float64 {
	if arrivalRPS >= serviceRPS {
		return math.Inf(1)
	}
	return arrivalRPS / (serviceRPS - arrivalRPS)
}
