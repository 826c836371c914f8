// Package gsd implements GSD (Gibbs Sampling-based Distributed
// optimization), the paper's Algorithm 2, which solves the per-slot
// mixed-integer problem P3: each iteration a randomly selected server group
// explores a random speed, the optimal load distribution for the exploration
// is computed (Eq. 18, via package loadbalance), and the exploration is
// adopted with the Gibbs probability
//
//	u = exp(δ/g̃ᵉ) / (exp(δ/g̃ᵉ) + exp(δ/g̃*)),
//
// where δ is the temperature controlling exploration versus exploitation.
// Theorem 1: the induced Markov chain converges to the Gibbs stationary
// distribution Ω(x) ∝ exp(δ/g̃(x)), which concentrates on the global optimum
// as δ → ∞.
//
// Two engines are provided: Solve, a fast sequential simulation of the
// algorithm, and SolveDistributed, a goroutine-per-group message-passing
// implementation in which groups compete for the update slot with random
// timers (§4.2) and loads are negotiated through the dual-decomposition
// protocol of package loadbalance. Server failures are modeled per §4.2:
// failed groups are forced off and simply do not participate.
package gsd

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/dcmodel"
	"repro/internal/loadbalance"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

// Options configures a GSD run.
type Options struct {
	// Delta is the constant temperature δ. Ignored when Schedule is set.
	Delta float64
	// Schedule, if non-nil, returns the temperature for each iteration,
	// enabling the paper's "advisory approach" of ramping δ up over time.
	Schedule func(iter int) float64
	// MaxIters is the iteration budget (the stopping criterion of line 8).
	MaxIters int
	// Patience, when positive, stops the run early after this many
	// consecutive iterations without improving the incumbent.
	Patience int
	// Seed drives all randomness; identical seeds give identical runs.
	Seed uint64
	// InitSpeeds optionally fixes the initial speed vector (line 1 requires
	// a feasible initialization). Nil means "all groups at top speed".
	InitSpeeds []int
	// Failed marks server groups that have failed; they are forced to speed
	// 0 and never selected for updates (§4.2 failure behavior).
	Failed []bool
	// RecordHistory enables per-iteration incumbent tracking (Fig. 4).
	RecordHistory bool
	// Workers has no effect and is not validated. Algorithm 2 is a strictly
	// sequential chain, and both engines ignore this field. It remains only
	// because the benchmark module (bench/) still sets it; it goes when
	// that caller does.
	Workers int
	// Metrics, when non-nil, records iteration/acceptance totals,
	// patience exits, warm-start cold fallbacks and per-solve wall time.
	// The instruments are concurrency-safe, so one SolveMetrics can be
	// shared across solvers and goroutines.
	Metrics *telemetry.SolveMetrics
	// Tracer, when non-nil, records execution spans: one gsd.solve span
	// per run with a gsd.sweep child per iteration (acceptance probability
	// u, proposed group/speed, the gsd.loadsplit evaluation). Spans nest
	// under whatever span the caller has open on the same tracer — a
	// sim.decide span when the solver runs inside the engine. Nil (the
	// default) records nothing and leaves the solve loop untouched.
	Tracer *span.Tracer
}

// Result is the outcome of a GSD run.
type Result struct {
	// Solution is the best configuration visited. (Algorithm 2's incumbent
	// x* is replaced probabilistically and can end worse than the best
	// state seen; returning the best-ever visit is the standard
	// simulated-annealing refinement and never hurts.)
	Solution dcmodel.Solution
	// History holds the incumbent objective g̃* after each iteration when
	// RecordHistory is set — the trajectory the paper plots in Fig. 4,
	// including the occasional accepted up-moves.
	History []float64
	// Iters is the number of iterations executed.
	Iters int
	// Accepted counts adopted explorations.
	Accepted int
}

// ErrInfeasibleInit is returned when the initial speed vector cannot carry
// the slot's load.
var ErrInfeasibleInit = errors.New("gsd: infeasible initial speed vector")

func (o *Options) temperature(iter int) float64 {
	if o.Schedule != nil {
		return o.Schedule(iter)
	}
	return o.Delta
}

// RampSchedule returns a multiplicative temperature ramp
// δ(i) = δ0·growth^(i/step), capped at deltaMax — the adaptive selection
// recommended at the end of §4.2 (explore first, then concentrate).
func RampSchedule(delta0, growth float64, step int, deltaMax float64) func(int) float64 {
	if step <= 0 {
		step = 1
	}
	return func(iter int) float64 {
		d := delta0 * math.Pow(growth, float64(iter/step))
		if d > deltaMax {
			return deltaMax
		}
		return d
	}
}

// acceptProb computes the Gibbs acceptance u in an overflow-safe form:
// u = σ(δ·(1/g̃ᵉ − 1/g̃*)). Infinite objectives (infeasible explorations)
// yield the correct limits.
func acceptProb(delta, gExplore, gBest float64) float64 {
	invE := safeInv(gExplore)
	invB := safeInv(gBest)
	z := delta * (invE - invB)
	// Sigmoid with saturation.
	switch {
	case z > 500:
		return 1
	case z < -500:
		return 0
	default:
		return 1 / (1 + math.Exp(-z))
	}
}

// safeInv returns 1/g with the conventions GSD needs: +Inf objectives (an
// infeasible or overloaded exploration) map to 0 preference, and objectives
// at or below zero (possible when λ = 0 and everything is off) map to a huge
// preference without producing NaN.
func safeInv(g float64) float64 {
	if math.IsInf(g, 1) {
		return 0
	}
	if g <= 0 {
		return math.MaxFloat64 / 4
	}
	return 1 / g
}

// proposalCache memoizes evaluated Gibbs proposals relative to the current
// incumbent. Every exploration is "incumbent with group g moved to speed k",
// so a (g, k) pair fully identifies it until the incumbent changes; repeated
// explorations of a coordinate (common late in a run, when most proposals
// are rejected) are then free. The solver is deterministic and draws no
// randomness, so replaying a memoized result leaves the RNG sequence — and
// therefore the whole chain — bit-for-bit identical to a fresh solve.
type proposalCache struct {
	stride  int // max speeds-per-group + 1
	epoch   uint64
	entries []cacheEntry // nil when the memo is disabled (see maxCacheFloats)
}

// maxCacheFloats bounds the memo's worst-case retained memory: every entry
// keeps a cluster-sized load buffer across epochs, so a full cache holds
// groups²·stride floats — fine at the 200-group experiment scale (~2 MB),
// catastrophic at a 10k-group fleet site (~5 TB). Past the bound the memo is
// disabled and every repeated proposal is re-solved; the solver is
// deterministic and draws no randomness, so the chain is bit-for-bit
// identical either way.
const maxCacheFloats = 8 << 20 // 8M float64s ≈ 64 MB retained worst case

type cacheEntry struct {
	epoch  uint64 // valid iff equal to the cache's current epoch
	failed bool   // the solve returned ErrInfeasible
	value  float64
	load   []float64 // full cluster-indexed loads (reused across epochs)
}

func newProposalCache(c *dcmodel.Cluster) proposalCache {
	stride := 1
	for g := range c.Groups {
		if n := c.Groups[g].Type.NumSpeeds() + 1; n > stride {
			stride = n
		}
	}
	pc := proposalCache{stride: stride, epoch: 1}
	if n := len(c.Groups); n*stride*n <= maxCacheFloats {
		pc.entries = make([]cacheEntry, n*stride)
		// One slab backs every entry's load buffer (each pre-sliced to
		// len 0, cap n), so store never allocates: the per-entry lazy
		// appends used to dominate the allocation profile of a fleet
		// site's first slot.
		backing := make([]float64, n*stride*n)
		for i := range pc.entries {
			pc.entries[i].load = backing[i*n : i*n : (i+1)*n]
		}
	}
	return pc
}

// lookup returns the entry for proposal (g, k) if it was evaluated against
// the current incumbent, nil otherwise.
func (c *proposalCache) lookup(g, k int) *cacheEntry {
	if c.entries == nil {
		return nil
	}
	e := &c.entries[g*c.stride+k]
	if e.epoch != c.epoch {
		return nil
	}
	return e
}

func (c *proposalCache) store(g, k int, failed bool, value float64, load []float64) {
	if c.entries == nil {
		return
	}
	e := &c.entries[g*c.stride+k]
	e.epoch, e.failed, e.value = c.epoch, failed, value
	e.load = append(e.load[:0], load...)
}

// invalidate drops every entry (the incumbent changed) in O(1) by bumping
// the epoch; entry buffers stay allocated for reuse.
func (c *proposalCache) invalidate() { c.epoch++ }

// engine holds shared run state for both GSD implementations.
type engine struct {
	p        *dcmodel.SlotProblem
	opts     Options
	rng      *stats.RNG
	alive    []int            // indices of non-failed groups
	speeds   []int            // current exploration vector x^e
	best     dcmodel.Solution // incumbent x*
	bestEver dcmodel.Solution // best configuration visited
	history  []float64
	iters    int
	accept   int

	// Sequential hot-path state (the distributed engine drives its own loop
	// and leaves these untouched): one persistent load-split instance that
	// receives a SetSpeed delta per proposal instead of a full rebuild, a
	// reusable evaluation buffer, the proposal memo, and the group of the
	// pending proposal (-1 before the first draw).
	inst  *loadbalance.Instance
	eval  dcmodel.Solution
	cache proposalCache
	propG int
}

func newEngine(p *dcmodel.SlotProblem, opts Options) (*engine, error) {
	e := &engine{}
	if err := e.reset(p, opts); err != nil {
		return nil, err
	}
	return e, nil
}

// reset re-arms the engine for a new (problem, options) pair, reusing every
// buffer a previous run left behind: the RNG is reseeded to the exact
// NewRNG state, the persistent load-split instance is Reset (bit-identical
// to a fresh build), and the proposal memo survives shape-compatible
// problem changes through an epoch bump. A pooled engine therefore runs the
// identical chain a freshly allocated one would.
func (e *engine) reset(p *dcmodel.SlotProblem, opts Options) error {
	n := len(p.Cluster.Groups)
	if opts.Failed != nil && len(opts.Failed) != n {
		return fmt.Errorf("gsd: Failed has %d entries for %d groups", len(opts.Failed), n)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 200 * n
	}
	e.p, e.opts = p, opts
	if e.rng == nil {
		e.rng = stats.NewRNG(opts.Seed)
	} else {
		e.rng.Reseed(opts.Seed)
	}
	e.iters, e.accept = 0, 0
	e.history = e.history[:0]
	if cap(e.alive) < n {
		e.alive = make([]int, 0, n)
	} else {
		e.alive = e.alive[:0]
	}
	for g := 0; g < n; g++ {
		if opts.Failed == nil || !opts.Failed[g] {
			e.alive = append(e.alive, g)
		}
	}
	if len(e.alive) == 0 {
		return errors.New("gsd: every group has failed")
	}
	// Line 1: feasible initialization.
	if cap(e.speeds) < n {
		e.speeds = make([]int, n)
	} else {
		e.speeds = e.speeds[:n]
		clear(e.speeds)
	}
	if opts.InitSpeeds != nil {
		if len(opts.InitSpeeds) != n {
			return fmt.Errorf("gsd: InitSpeeds has %d entries for %d groups", len(opts.InitSpeeds), n)
		}
		copy(e.speeds, opts.InitSpeeds)
		for g := 0; g < n; g++ {
			if opts.Failed != nil && opts.Failed[g] {
				e.speeds[g] = 0
			}
		}
	} else {
		for _, g := range e.alive {
			e.speeds[g] = p.Cluster.Groups[g].Type.NumSpeeds()
		}
	}
	if !p.Feasible(e.speeds) {
		return ErrInfeasibleInit
	}
	if e.inst == nil {
		e.inst = &loadbalance.Instance{}
	}
	if err := e.inst.Reset(p, e.speeds); err != nil {
		return fmt.Errorf("gsd: initial load distribution: %w", err)
	}
	if err := e.inst.SolveInto(&e.best); err != nil {
		return fmt.Errorf("gsd: initial load distribution: %w", err)
	}
	e.bestEver.CopyFrom(&e.best)
	e.resetCache()
	e.propG = -1
	return nil
}

// resetCache re-arms the proposal memo for the engine's current problem.
// When the cluster shape (group count and speed stride) matches the
// previous run's, the allocated entries and their load slab are kept and an
// epoch bump invalidates the stale values; otherwise the memo is rebuilt.
func (e *engine) resetCache() {
	c := e.p.Cluster
	stride := 1
	for g := range c.Groups {
		if k := c.Groups[g].Type.NumSpeeds() + 1; k > stride {
			stride = k
		}
	}
	n := len(c.Groups)
	enabled := n*stride*n <= maxCacheFloats
	if e.cache.stride == stride &&
		((enabled && len(e.cache.entries) == n*stride) || (!enabled && e.cache.entries == nil)) {
		e.cache.invalidate()
		return
	}
	e.cache = newProposalCache(c)
}

// evalExploration computes g̃ for the current exploration vector. The
// returned pointer aliases engine-owned state (the incumbent when the
// exploration equals it, the shared eval buffer otherwise) and is only valid
// until the next call. The load-split solver is pure and deterministic, so
// both shortcuts — returning the incumbent directly and replaying the
// proposal memo — reproduce a fresh solve bit-for-bit without touching the
// RNG.
func (e *engine) evalExploration() (*dcmodel.Solution, error) {
	g := e.propG
	if g < 0 || e.speeds[g] == e.best.Speeds[g] {
		// The proposal re-drew the incumbent's own speed: the exploration IS
		// the incumbent configuration.
		return &e.best, nil
	}
	k := e.speeds[g]
	if ent := e.cache.lookup(g, k); ent != nil {
		if ent.failed {
			return nil, loadbalance.ErrInfeasible
		}
		e.eval.Speeds = append(e.eval.Speeds[:0], e.speeds...)
		e.eval.Load = append(e.eval.Load[:0], ent.load...)
		e.eval.Value = ent.value
		return &e.eval, nil
	}
	if err := e.inst.SolveInto(&e.eval); err != nil {
		// Every load-split failure surfaces as ErrInfeasible, so a boolean
		// memo reproduces the error (and its span string) exactly.
		e.cache.store(g, k, true, 0, nil)
		return nil, err
	}
	e.cache.store(g, k, false, e.eval.Value, e.eval.Load)
	return &e.eval, nil
}

// revertProposal rolls the exploration vector and the persistent instance
// back to the incumbent. The exploration differs from the incumbent in at
// most the pending proposal's coordinate, so the rollback is O(1) plus the
// instance's snapshot restore.
func (e *engine) revertProposal() {
	if e.propG < 0 {
		return
	}
	e.speeds[e.propG] = e.best.Speeds[e.propG]
	e.inst.Revert()
}

// step runs one GSD iteration (lines 2–7) against the persistent load-split
// instance. The span bookkeeping never touches e.rng, so traced and
// untraced runs draw the identical random sequence.
func (e *engine) step() {
	delta := e.opts.temperature(e.iters)
	var sweep *span.Span
	if e.opts.Tracer != nil {
		sweep = e.opts.Tracer.Start("gsd.sweep",
			span.Int("iter", e.iters), span.Float("delta", delta))
	}
	// Lines 2–5: evaluate the exploration if it is feasible.
	if e.inst.Feasible() {
		var split *span.Span
		if sweep != nil {
			split = sweep.Child("gsd.loadsplit")
		}
		sol, err := e.evalExploration()
		if sweep != nil {
			if err != nil {
				split.Set(span.Str("error", err.Error()))
			} else {
				split.Set(span.Float("value", sol.Value))
			}
			split.End()
		}
		if err == nil {
			if sol.Value < e.bestEver.Value {
				e.bestEver.CopyFrom(sol)
			}
			u := acceptProb(delta, sol.Value, e.best.Value)
			accepted := e.rng.Bernoulli(u)
			if sweep != nil {
				sweep.Set(
					span.Float("u", u), span.Bool("accepted", accepted),
					span.Float("g_explore", sol.Value), span.Float("g_best", e.best.Value))
			}
			if accepted {
				if sol != &e.best {
					// The incumbent's speeds changed: previously memoized
					// proposals no longer describe moves from it.
					e.best.CopyFrom(sol)
					e.cache.invalidate()
				}
				e.inst.Commit()
				e.accept++
			} else {
				e.revertProposal()
			}
		} else {
			e.revertProposal()
		}
	} else {
		// Infeasible exploration: acceptance probability is 0 (g̃ᵉ = +Inf);
		// revert to the incumbent.
		if sweep != nil {
			sweep.Set(span.Bool("feasible", false))
		}
		e.revertProposal()
	}
	// Line 7: a random live group explores a random speed.
	g := e.alive[e.rng.IntN(len(e.alive))]
	k := e.rng.IntN(e.p.Cluster.Groups[g].Type.NumSpeeds() + 1)
	e.speeds[g] = k
	if err := e.inst.SetSpeed(g, k); err != nil {
		panic("gsd: proposal out of range: " + err.Error())
	}
	e.propG = g
	if sweep != nil {
		sweep.Set(span.Int("group", g), span.Int("proposed_speed", k))
		sweep.End()
	}
	e.iters++
	if e.opts.RecordHistory {
		e.history = append(e.history, e.best.Value)
	}
}

func (e *engine) run() Result {
	start := time.Now()
	var solveSpan *span.Span
	if e.opts.Tracer != nil {
		solveSpan = e.opts.Tracer.Start("gsd.solve",
			span.Int("groups", len(e.p.Cluster.Groups)),
			span.Float("lambda_rps", e.p.LambdaRPS))
	}
	noImprove := 0
	patienceExit := false
	lastBest := e.bestEver.Value
	for e.iters < e.opts.MaxIters {
		e.step()
		if e.bestEver.Value < lastBest-1e-15*(1+math.Abs(lastBest)) {
			lastBest = e.bestEver.Value
			noImprove = 0
		} else {
			noImprove++
			if e.opts.Patience > 0 && noImprove >= e.opts.Patience {
				patienceExit = true
				break
			}
		}
	}
	if solveSpan != nil {
		solveSpan.Set(
			span.Int("iters", e.iters), span.Int("accepted", e.accept),
			span.Float("best_value", e.bestEver.Value),
			span.Bool("patience_exit", patienceExit))
		solveSpan.End()
	}
	if m := e.opts.Metrics; m != nil {
		m.FinishSolve(e.iters, e.accept, patienceExit, time.Since(start).Seconds())
	}
	return Result{
		Solution: e.bestEver,
		History:  e.history,
		Iters:    e.iters,
		Accepted: e.accept,
	}
}

// Solve runs the sequential GSD engine on P3.
func Solve(p *dcmodel.SlotProblem, opts Options) (Result, error) {
	e, err := newEngine(p, opts)
	if err != nil {
		return Result{}, err
	}
	return e.run(), nil
}

// Solver adapts GSD to the p3.Solver interface. Opts configures the first
// call; the per-run state the solver evolves between calls (the advancing
// seed and the warm-start speeds) lives behind a mutex, so a Solver is
// safe for concurrent use and Solve never mutates Opts.
type Solver struct {
	Opts Options

	mu      sync.Mutex
	started bool
	seed    uint64
	warm    []int
	eng     *engine // single-slot engine pool (nil when absent or in use)
}

// Clone returns a fresh solver with the same Options and none of the
// evolved per-run state (seed advance, warm start) — the right way to hand
// each concurrent experiment worker its own independent sample path.
func (s *Solver) Clone() *Solver {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &Solver{Opts: s.Opts}
}

// next snapshots the options for one run and reserves the following seed,
// so concurrent calls never replay identical sample paths.
func (s *Solver) next() Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	opts := s.Opts
	if s.started {
		opts.Seed = s.seed
		opts.InitSpeeds = s.warm
	}
	s.started = true
	s.seed = opts.Seed*6364136223846793005 + 1442695040888963407
	return opts
}

// runPooled executes one run on the solver's pooled engine (falling back to
// a fresh engine when a concurrent call holds the pooled one) and returns a
// deep copy of the solution, so the engine's buffers can be reused by the
// next call. reset makes a pooled engine bit-identical to a fresh one, so
// pooling is invisible to results.
func (s *Solver) runPooled(p *dcmodel.SlotProblem, opts Options) (dcmodel.Solution, error) {
	s.mu.Lock()
	e := s.eng
	s.eng = nil
	s.mu.Unlock()
	if e == nil {
		e = &engine{}
	}
	put := func() {
		s.mu.Lock()
		if s.eng == nil {
			s.eng = e
		}
		s.mu.Unlock()
	}
	if err := e.reset(p, opts); err != nil {
		put()
		return dcmodel.Solution{}, err
	}
	res := e.run()
	sol := res.Solution.Clone()
	put()
	return sol, nil
}

// Solve implements p3.Solver. The seed is advanced on every call so repeated
// slots do not replay the same sample path; pass a fresh Solver (or Clone)
// for reproducibility of a single slot. Each slot warm-starts from the
// previous slot's decision, falling back to the all-top-speed
// initialization when the warm start cannot carry the new load — or when
// the cluster's group count changed between slots (a resize or failure)
// and the warm vector no longer lines up with the groups.
func (s *Solver) Solve(p *dcmodel.SlotProblem) (dcmodel.Solution, error) {
	opts := s.next()
	var solverSpan *span.Span
	if opts.Tracer != nil {
		solverSpan = opts.Tracer.Start("gsd.solver")
	}
	if len(opts.InitSpeeds) > 0 && len(opts.InitSpeeds) != len(p.Cluster.Groups) {
		// A stale warm start must degrade, not fail the slot: drop it and
		// cold-start from all-top-speed, exactly like an infeasible one.
		opts.InitSpeeds = nil
		if opts.Metrics != nil {
			opts.Metrics.ColdFallbacks.Inc()
		}
		solverSpan.Set(span.Bool("cold_fallback", true))
	}
	solverSpan.Set(span.Bool("warm_start", len(opts.InitSpeeds) > 0))
	sol, err := s.runPooled(p, opts)
	if errors.Is(err, ErrInfeasibleInit) && opts.InitSpeeds != nil {
		if opts.Metrics != nil {
			opts.Metrics.ColdFallbacks.Inc()
		}
		solverSpan.Set(span.Bool("cold_fallback", true))
		cold := opts
		cold.InitSpeeds = nil
		sol, err = s.runPooled(p, cold)
	}
	if err != nil {
		solverSpan.Set(span.Str("error", err.Error()))
		solverSpan.End()
		return dcmodel.Solution{}, err
	}
	solverSpan.End()
	// Warm-start the next slot from this slot's decision.
	s.mu.Lock()
	s.warm = append([]int(nil), sol.Speeds...)
	s.mu.Unlock()
	return sol, nil
}
