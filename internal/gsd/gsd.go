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
// Two engines are provided, running one step body: Solve, a fast
// sequential simulation of the algorithm, and SolveDistributed, in which
// every group draws from its own randomness, the groups compete for the
// update slot with random timers (§4.2), and loads are negotiated through
// the dual-decomposition price protocol of package loadbalance. Server
// failures are modeled per §4.2: failed groups are forced off and simply do
// not participate.
//
// Each run's record is the Stats value in its Result; the gsd.solve and
// gsd.solver span attributes and the one fold into Options.Metrics read it.
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
	// Delta is the constant temperature δ.
	Delta float64
	// MaxIters is the iteration budget (the stopping criterion of line 8).
	MaxIters int
	// Patience, when positive, stops the run early after this many
	// consecutive iterations without improving the best value visited by
	// more than 1e-15·(1+|best|).
	Patience int
	// Seed drives all randomness; identical seeds give identical runs.
	Seed uint64
	// InitSpeeds optionally fixes the initial speed vector (line 1 requires
	// a feasible initialization, with every speed in [0, NumSpeeds]). Nil
	// means "all groups at top speed".
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
	// Metrics, when non-nil, receives each call's Stats when it finishes;
	// only that fold reads the field, and the field goes when the benchmark
	// module (bench/) stops setting it. The instruments are concurrency-safe,
	// so one SolveMetrics can be shared across solvers and goroutines.
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
	// Stats is the run's record.
	Stats Stats
}

// Stats is the record of one solve, counted once by the engine and read by
// the metrics fold and the span attributes; reading it touches no RNG.
type Stats struct {
	Iters            int           // iterations executed
	Accepted         int           // adopted explorations
	CertifiedRejects int           // proposals rejected on their lower bound, unsplit
	Splits           int           // load splits run; a re-drawn incumbent speed runs none
	DualRounds       int           // prices the distributed engine's splits broadcast
	PatienceExit     bool          // Patience stopped the run before MaxIters
	ColdFallback     bool          // a Solver dropped its warm start and ran cold
	Wall             time.Duration // the run's wall time
}

// record folds a Solve, SolveDistributed or Solver.Solve call's Stats into
// opts.Metrics, the field's only reader; a failed call counts its fallback.
func record(opts Options, st Stats, err error) {
	m := opts.Metrics
	if m == nil {
		return
	}
	if st.ColdFallback {
		m.ColdFallbacks.Inc()
	}
	if err != nil {
		return
	}
	m.Solves.Inc()
	m.Iterations.Add(float64(st.Iters))
	m.Accepted.Add(float64(st.Accepted))
	if st.PatienceExit {
		m.PatienceExits.Inc()
	}
	m.DualRounds.Add(float64(st.DualRounds))
	m.SolveSeconds.Observe(st.Wall.Seconds())
	m.ItersPerRun.Observe(float64(st.Iters))
}

// ErrInfeasibleInit is returned when the initial speed vector cannot carry
// the slot's load, has the wrong length, or names a speed outside a group's
// [0, NumSpeeds].
var ErrInfeasibleInit = errors.New("gsd: infeasible initial speed vector")

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
	stats    Stats

	// incNu, incMu are the incumbent's split dual (loadbalance.Instance.Dual),
	// the price and kink weight of every proposal's lower bound.
	incNu, incMu float64

	// One persistent load-split instance that receives a SetSpeed delta per
	// proposal instead of a full rebuild, a reusable evaluation buffer, and
	// the group of the pending proposal (-1 before the first draw).
	inst  *loadbalance.Instance
	eval  dcmodel.Solution
	propG int

	// agents, when non-nil, makes this the distributed engine: the agents
	// draw the acceptance and the proposal, and the load split runs the
	// price protocol. Nil for the sequential engine, which draws from rng.
	agents []agent
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
// NewRNG state and the persistent load-split instance is Reset
// (bit-identical to a fresh build). A pooled engine therefore runs the
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
	e.stats = Stats{}
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
			return fmt.Errorf("%w: %d speeds for %d groups", ErrInfeasibleInit, len(opts.InitSpeeds), n)
		}
		copy(e.speeds, opts.InitSpeeds)
		for g := 0; g < n; g++ {
			if opts.Failed != nil && opts.Failed[g] {
				e.speeds[g] = 0
			}
			if k, top := e.speeds[g], p.Cluster.Groups[g].Type.NumSpeeds(); k < 0 || k > top {
				return fmt.Errorf("%w: group %d speed %d outside [0, %d]", ErrInfeasibleInit, g, k, top)
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
	e.incNu, e.incMu = e.inst.Dual()
	e.propG = -1
	return nil
}

// splitPending reports whether the exploration differs from the incumbent:
// a proposal is pending and moved its group off the incumbent's speed.
func (e *engine) splitPending() bool {
	g := e.propG
	return g >= 0 && e.speeds[g] != e.best.Speeds[g]
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

// step runs one GSD iteration body (lines 2–7) at temperature delta
// against the persistent load-split instance, annotating sweep when it is
// non-nil. The span bookkeeping never touches the RNGs, so traced and
// untraced runs draw the identical random sequence.
//
// A proposal whose acceptance certifiable lets it draw ahead of the split
// is rejected unsplit when the Lagrangian bound lb on its value shows both
// outcomes of the split: lb > the best-ever value, so it cannot become the
// answer, and the drawn uniform is at least the acceptance u at lb, so
// Bernoulli(u) at its value, which is no larger, rejects. The uniform is the
// one Bernoulli would draw, so the chain, the RNG streams and every result
// stay bit for bit those of splitting every proposal.
func (e *engine) step(delta float64, sweep *span.Span) {
	// Lines 2–5: evaluate the exploration if it is feasible.
	switch {
	case !e.inst.Feasible():
		// Infeasible exploration: acceptance probability is 0 (g̃ᵉ = +Inf);
		// revert to the incumbent.
		if sweep != nil {
			sweep.Set(span.Bool("feasible", false))
		}
		e.revertProposal()
	default:
		draw := math.NaN() // the acceptance uniform when drawn ahead of the split
		if lb, ulb, ok := e.certifiable(delta); ok {
			draw = e.arbiter().Float64()
			if lb > e.bestEver.Value && draw >= ulb*(1+acceptSlack) {
				e.stats.CertifiedRejects++
				if sweep != nil {
					sweep.Set(
						span.Bool("certified_reject", true), span.Float("g_lower", lb),
						span.Bool("accepted", false), span.Float("g_best", e.best.Value))
				}
				e.revertProposal()
				break
			}
		}
		sol, err := &e.best, error(nil) // a re-drawn speed: the incumbent's split, bit for bit
		if e.splitPending() {
			sol, err = e.split(sweep)
		}
		if err != nil {
			if !math.IsNaN(draw) {
				// certifiable admits only splits that cannot fail.
				panic("gsd: a certifiable proposal's split failed: " + err.Error())
			}
			e.revertProposal()
			break
		}
		if sol.Value < e.bestEver.Value {
			e.bestEver.CopyFrom(sol)
		}
		u := acceptProb(delta, sol.Value, e.best.Value)
		var accepted bool
		if math.IsNaN(draw) {
			accepted = e.arbiter().Bernoulli(u)
		} else {
			accepted = draw < u // Bernoulli's own test: certifiable keeps u in (0, 1)
		}
		if sweep != nil {
			sweep.Set(
				span.Float("u", u), span.Bool("accepted", accepted),
				span.Float("g_explore", sol.Value), span.Float("g_best", e.best.Value))
		}
		if accepted {
			if sol != &e.best {
				e.best.CopyFrom(sol)
				e.incNu, e.incMu = e.inst.Dual()
			}
			e.inst.Commit()
			e.stats.Accepted++
		} else {
			e.revertProposal()
		}
	}
	// Line 7: a random live group explores a random speed.
	g, k := e.propose()
	e.speeds[g] = k
	if err := e.inst.SetSpeed(g, k); err != nil {
		panic("gsd: proposal out of range: " + err.Error())
	}
	e.propG = g
	if sweep != nil {
		sweep.Set(span.Int("group", g), span.Int("proposed_speed", k))
	}
}

// acceptSlack is the relative margin step adds to the acceptance at a lower
// bound before it rejects on it. acceptProb is monotone in the value but for
// math.Exp, which errs by under an ulp and so can lift the acceptance at a
// larger value by a few ulps; 2⁻⁴⁰ covers that many times over.
const acceptSlack = 0x1p-40

// certifiable reports whether the pending proposal's acceptance may be drawn
// before its split, with lb, the Lagrangian lower bound on the split's value
// at the incumbent's dual (loadbalance.Instance.LowerBound), and ulb, the
// acceptance at lb. It may when all of these hold, so that splitting after
// the draw consumes exactly the draw Bernoulli would have made:
//   - a split is pending (step answers a re-drawn speed with the
//     incumbent);
//   - the split cannot fail: Wd > 0, which the price protocol needs, and λ
//     fits the proposal's capacity (loadbalance.Instance.Fits);
//   - Bernoulli draws, at any value v ≥ lb: u(v) > 0 because u(+Inf) > 0
//     (the sigmoid is positive unless acceptProb saturates it at 0, which it
//     does exactly when its z = δ·(0 − 1/g*) fails z ≥ −500, NaN too), and
//     u(v) < 1 because u(lb) < 1 − 2⁻⁴⁰ (u(v) exceeds u(lb) by at most the
//     few ulps acceptSlack covers, and 1/(1+e^−z) rounds to 1 only for
//     z ≳ 36.7, well past where u reaches 1 − 2⁻⁴⁰).
//
// It reads no RNG.
func (e *engine) certifiable(delta float64) (lb, ulb float64, ok bool) {
	if !e.splitPending() || !(e.p.Wd > 0) || !e.inst.Fits() ||
		!(delta*(0-safeInv(e.best.Value)) >= -500) {
		return 0, 0, false
	}
	lb = e.inst.LowerBound(e.incNu, e.incMu)
	ulb = acceptProb(delta, lb, e.best.Value)
	return lb, ulb, ulb < 1-acceptSlack
}

// split computes g̃ for the pending exploration (only when splitPending)
// under a gsd.loadsplit child of sweep, counting the split and its price
// rounds. Both splits are pure and bit-identical; the result aliases the
// engine's eval buffer until the next split.
func (e *engine) split(sweep *span.Span) (*dcmodel.Solution, error) {
	var sp *span.Span
	if sweep != nil {
		sp = sweep.Child("gsd.loadsplit")
	}
	var rounds int
	var err error
	if e.agents == nil {
		err = e.inst.SolveInto(&e.eval)
	} else {
		rounds, err = e.inst.SolveDistributedInto(&e.eval)
	}
	e.stats.Splits++
	e.stats.DualRounds += rounds
	if sweep != nil {
		if e.agents != nil {
			sp.Set(span.Int("dual_rounds", rounds))
		}
		if err != nil {
			sp.Set(span.Str("error", err.Error()))
		} else {
			sp.Set(span.Float("value", e.eval.Value))
		}
		sp.End()
	}
	return &e.eval, err
}

// arbiter returns the RNG that draws the Gibbs acceptance. Any agent can
// arbitrate; the distributed engine's first one does.
func (e *engine) arbiter() *stats.RNG {
	if e.agents != nil {
		return e.agents[0].rng
	}
	return e.rng
}

// propose draws line 7's proposal: a live group and the speed it explores.
// The sequential engine picks the group uniformly; in the distributed
// engine every agent draws a random timer and the first to fire (the
// smallest) wins the update slot and draws the speed from its own set.
func (e *engine) propose() (g, k int) {
	if e.agents == nil {
		g = e.alive[e.rng.IntN(len(e.alive))]
		return g, e.rng.IntN(e.p.Cluster.Groups[g].Type.NumSpeeds() + 1)
	}
	w, first := &e.agents[0], e.agents[0].rng.Float64()
	for i := 1; i < len(e.agents); i++ {
		if t := e.agents[i].rng.Float64(); t < first {
			w, first = &e.agents[i], t
		}
	}
	return w.id, w.rng.IntN(w.speeds + 1)
}

// run drives the chain for both engines at the temperature Delta: one
// gsd.sweep span and one step call per iteration, the history, the
// patience rule and the gsd.solve span (flagged distributed for the
// distributed engine), whose closing attributes are the run's Stats.
func (e *engine) run(step func(delta float64, sweep *span.Span)) Result {
	start := time.Now()
	var solveSpan *span.Span
	if e.opts.Tracer != nil {
		solveSpan = e.opts.Tracer.Start("gsd.solve",
			span.Int("groups", len(e.p.Cluster.Groups)),
			span.Float("lambda_rps", e.p.LambdaRPS))
		if e.agents != nil {
			solveSpan.Set(span.Bool("distributed", true))
		}
	}
	noImprove := 0
	lastBest := e.bestEver.Value
	delta := e.opts.Delta
	st := &e.stats
	for st.Iters < e.opts.MaxIters {
		var sweep *span.Span
		if e.opts.Tracer != nil {
			sweep = e.opts.Tracer.Start("gsd.sweep",
				span.Int("iter", st.Iters), span.Float("delta", delta))
		}
		step(delta, sweep)
		sweep.End()
		st.Iters++
		if e.opts.RecordHistory {
			e.history = append(e.history, e.best.Value)
		}
		if e.bestEver.Value < lastBest-1e-15*(1+math.Abs(lastBest)) {
			lastBest = e.bestEver.Value
			noImprove = 0
		} else {
			noImprove++
			if e.opts.Patience > 0 && noImprove >= e.opts.Patience {
				st.PatienceExit = true
				break
			}
		}
	}
	st.Wall = time.Since(start)
	if solveSpan != nil {
		solveSpan.Set(span.Int("iters", st.Iters), span.Int("accepted", st.Accepted),
			span.Int("certified_rejects", st.CertifiedRejects), span.Int("splits", st.Splits),
			span.Int("dual_rounds", st.DualRounds), span.Bool("patience_exit", st.PatienceExit),
			span.Float("best_value", e.bestEver.Value))
		solveSpan.End()
	}
	return Result{Solution: e.bestEver, History: e.history, Stats: *st}
}

// Solve runs the sequential GSD engine on P3.
func Solve(p *dcmodel.SlotProblem, opts Options) (Result, error) {
	return runFresh(newEngine(p, opts))
}

// runFresh runs a newly built engine (or returns its error) and folds its Stats.
func runFresh(e *engine, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	res := e.run(e.step)
	record(e.opts, res.Stats, nil)
	return res, nil
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
// next call, and the run's Stats. reset makes a pooled engine bit-identical
// to a fresh one, so pooling is invisible to results.
func (s *Solver) runPooled(p *dcmodel.SlotProblem, opts Options) (dcmodel.Solution, Stats, error) {
	s.mu.Lock()
	e := s.eng
	s.eng = nil
	s.mu.Unlock()
	if e == nil {
		e = &engine{}
	}
	defer func() {
		s.mu.Lock()
		if s.eng == nil {
			s.eng = e
		}
		s.mu.Unlock()
	}()
	if err := e.reset(p, opts); err != nil {
		return dcmodel.Solution{}, Stats{}, err
	}
	res := e.run(e.step)
	return res.Solution.Clone(), res.Stats, nil
}

// Solve implements p3.Solver. The seed is advanced on every call so repeated
// slots do not replay the same sample path; pass a fresh Solver (or Clone)
// for reproducibility of a single slot. Each slot warm-starts from the
// previous slot's decision, falling back to the all-top-speed
// initialization when the warm start does not fit the slot
// (ErrInfeasibleInit): it cannot carry the new load, names a speed a group
// does not have (a corrupt restored checkpoint), or no longer lines up with
// the groups after a resize or failure.
func (s *Solver) Solve(p *dcmodel.SlotProblem) (dcmodel.Solution, error) {
	sol, _, err := s.solve(p)
	return sol, err
}

// solve is Solve, also returning the call's Stats.
func (s *Solver) solve(p *dcmodel.SlotProblem) (dcmodel.Solution, Stats, error) {
	opts := s.next()
	var solverSpan *span.Span
	if opts.Tracer != nil {
		solverSpan = opts.Tracer.Start("gsd.solver")
	}
	sol, st, err := s.runPooled(p, opts)
	if errors.Is(err, ErrInfeasibleInit) && opts.InitSpeeds != nil {
		cold := opts
		cold.InitSpeeds = nil
		sol, st, err = s.runPooled(p, cold)
		st.ColdFallback = true
	}
	record(opts, st, err)
	solverSpan.Set(span.Bool("warm_start", len(opts.InitSpeeds) > 0), span.Bool("cold_fallback", st.ColdFallback))
	if err != nil {
		solverSpan.Set(span.Str("error", err.Error()))
		solverSpan.End()
		return dcmodel.Solution{}, st, err
	}
	solverSpan.End()
	// Warm-start the next slot from this slot's decision.
	s.mu.Lock()
	s.warm = append([]int(nil), sol.Speeds...)
	s.mu.Unlock()
	return sol, st, nil
}
