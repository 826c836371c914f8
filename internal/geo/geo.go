// Package geo extends COCA to geographically distributed data centers —
// the multi-site setting of the related work the paper builds on
// (geographical load balancing, refs [21][29][32] of the paper). A global
// load distributor splits each slot's arrivals across sites with different
// electricity prices, on-site renewables and carbon budgets; every site
// runs its own carbon-deficit queue, so the split is steered toward sites
// that are currently cheap *and* carbon-underspent.
//
// The per-slot problem separates: given a split (μ_1..μ_K), site k's cost
// is its own P3 optimum at load μ_k, a convex non-decreasing function of
// μ_k (minimum of convex costs with nested feasible sets). The split is
// computed by greedy marginal allocation in load chunks — optimal for
// convex per-site costs up to the chunk discretization.
package geo

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dcmodel"
	"repro/internal/p3"
	"repro/internal/renewable"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/trace"
)

// Site is one data center in the federation.
type Site struct {
	Name   string
	Server dcmodel.ServerType
	N      int
	Gamma  float64
	PUE    float64

	Price     *trace.Trace         // w_k(t) in $/kWh
	Portfolio *renewable.Portfolio // r_k(t), f_k(t), Z_k, α_k
}

// Validate reports whether the site is well formed for the horizon.
func (s *Site) Validate(slots int) error {
	if err := s.Server.Validate(); err != nil {
		return err
	}
	if s.N <= 0 {
		return fmt.Errorf("geo: site %q fleet %d", s.Name, s.N)
	}
	// Negated so that NaN, which fails every comparison, is rejected.
	if !(s.Gamma > 0 && s.Gamma < 1) {
		return fmt.Errorf("geo: site %q gamma %v", s.Name, s.Gamma)
	}
	if !(s.PUE >= 1) || math.IsInf(s.PUE, 1) {
		return fmt.Errorf("geo: site %q PUE %v", s.Name, s.PUE)
	}
	if s.Price == nil || s.Price.Len() < slots {
		return fmt.Errorf("geo: site %q price trace short", s.Name)
	}
	if s.Portfolio == nil {
		return fmt.Errorf("geo: site %q missing portfolio", s.Name)
	}
	return s.Portfolio.Validate(slots)
}

// CapacityRPS returns the site's γ-discounted top-speed capacity.
func (s *Site) CapacityRPS() float64 {
	return s.Gamma * float64(s.N) * s.Server.MaxRate()
}

func (s *Site) supply() supply { return supply{s.Name, s.Price, s.Portfolio, s.CapacityRPS()} }

// System is a federation of homogeneous sites under one global workload:
// each site's P3 is solved in closed form (p3.HomogeneousProblem) and the
// slot's arrivals are split by the memoized greedy marginal allocation of
// split.go.
type System struct {
	federation
	Sites []Site

	tracer *span.Tracer
	// The greedy split's instruments, set by Instrument: its solve
	// accounting and per-site chunk counters index-aligned with Sites.
	p3Solves, memoHits *telemetry.Counter
	chunks             []*telemetry.Counter
}

// SetTracer attaches a span tracer: every subsequent Step records a
// geo.step root span with one geo.site child per site (allocated load,
// chunk count, deficit queue, the operated speed/active and costs).
// Steps start *root* spans — geo systems are often stepped inside pooled
// experiment workers, and a root never adopts a stranger's open span.
// Nil (the default) disables tracing.
func (sys *System) SetTracer(tr *span.Tracer) { sys.tracer = tr }

// Instrument attaches federation metrics (nil detaches): Step feeds the
// step totals, the per-site series and the greedy split's solve
// accounting, and Settle the deficit gauges.
func (sys *System) Instrument(m *telemetry.FleetMetrics) {
	sys.instrument(m)
	sys.p3Solves, sys.memoHits, sys.chunks = nil, nil, nil
	if m == nil {
		return
	}
	var chunks *telemetry.LabeledCounter
	sys.p3Solves, sys.memoHits, chunks = m.Split()
	sys.chunks = make([]*telemetry.Counter, len(sys.Sites))
	for i := range sys.Sites {
		sys.chunks[i] = chunks.With(sys.Sites[i].Name)
	}
}

// NewSystem validates and assembles the federation, creating one
// carbon-deficit queue per site.
func NewSystem(sites []Site, beta float64, slots int) (*System, error) {
	fed, err := newFederation(sites, beta, slots)
	if err != nil {
		return nil, err
	}
	return &System{federation: fed, Sites: sites}, nil
}

// siteProblem builds site k's P3 instance for the slot at load mu.
func (sys *System) siteProblem(k int, v, mu float64) *p3.HomogeneousProblem {
	site := &sys.Sites[k]
	we, wd, onsiteKW := sys.weights(k, v)
	return &p3.HomogeneousProblem{
		Type: site.Server, N: site.N,
		Gamma: site.Gamma, PUE: site.PUE,
		LambdaRPS: mu,
		We:        we, Wd: wd,
		OnsiteKW: onsiteKW,
	}
}

// operate records site k's solved configuration in so and bills it.
func (sys *System) operate(k int, so *SiteOutcome, sol p3.HomogeneousSolution) {
	so.Speed, so.Active, so.Value = sol.Speed, sol.Active, sol.Value
	sys.charge(k, so, sol.PowerKW, sol.DelayCost)
}

// solveSite is System's per-site P3 for the proportional split.
func (sys *System) solveSite(k int, v, mu float64, so *SiteOutcome) error {
	sol, err := sys.siteProblem(k, v, mu).Solve()
	if err != nil {
		return err
	}
	sys.operate(k, so, sol)
	return nil
}

// Chunks is the load-split granularity of Step: the slot's arrivals are
// allocated in λ/Chunks increments by greedy marginal cost.
const Chunks = 100

// Step distributes lambda across the sites minimizing the federation's P3
// objective Σ_k [V·g_k + q_k·y_k], operates each site, and returns the
// outcome. Call Settle with the realized off-site generation afterwards.
//
// The split runs on the memoized greedy engine of split.go: bit-identical
// to the naive O(Chunks·K)-solve loop (stepNaive in split_test.go, pinned
// by golden hash tests) at O(Chunks + K) P3 solves. Real solver failures
// abort the step and count into solve_errors; capacity infeasibility
// never does — a full site is a legitimate split answer.
func (sys *System) Step(lambda float64, v float64) (StepOutcome, error) {
	if err := sys.guard(lambda, v); err != nil {
		return StepOutcome{}, err
	}
	start := sys.clock()
	k := len(sys.Sites)
	stepSpan := sys.tracer.StartRoot("geo.step",
		span.Int("slot", sys.slot), span.Float("lambda_rps", lambda),
		span.Float("v", v), span.Int("sites", k))
	defer stepSpan.End()
	plan, err := sys.greedySplit(lambda, v)
	if err != nil {
		stepSpan.Set(span.Str("error", err.Error()),
			span.Int("p3_solves", plan.p3Solves), span.Int("memo_hits", plan.memoHits))
		if sys.metrics != nil && !errors.Is(err, errNoAbsorb) {
			sys.metrics.SolveErrors.Inc()
		}
		return StepOutcome{}, err
	}
	out := StepOutcome{Sites: make([]SiteOutcome, k)}
	for i := 0; i < k; i++ {
		var siteSpan *span.Span
		if stepSpan != nil {
			siteSpan = stepSpan.Child("geo.site",
				span.Str("site", sys.Sites[i].Name),
				span.Float("load_rps", plan.split[i]),
				span.Int("chunks", plan.chunks[i]),
				span.Float("marginal_usd", plan.marginal[i]),
				span.Float("queue_kwh", sys.Queue(i)))
		}
		so := &out.Sites[i]
		so.LoadRPS = plan.split[i]
		if plan.split[i] > 0 {
			// The site's last winning candidate was solved at exactly this
			// load: reuse it instead of the naive loop's final re-solve.
			plan.memoHits++
			sys.operate(i, so, plan.sols[i])
		}
		if siteSpan != nil {
			siteSpan.Set(
				span.Int("speed", so.Speed), span.Int("active", so.Active),
				span.Float("cost_usd", so.CostUSD), span.Float("grid_kwh", so.GridKWh))
			siteSpan.End()
		}
	}
	out.total()
	if sys.metrics != nil {
		sys.observe(&out, start)
		sys.p3Solves.Add(float64(plan.p3Solves))
		sys.memoHits.Add(float64(plan.memoHits))
		for i, c := range plan.chunks {
			sys.chunks[i].Add(float64(c))
		}
	}
	if stepSpan != nil {
		stepSpan.Set(
			span.Float("total_usd", out.TotalCostUSD),
			span.Float("total_grid_kwh", out.TotalGridKWh),
			span.Int("p3_solves", plan.p3Solves),
			span.Int("memo_hits", plan.memoHits))
	}
	return out, nil
}

// ProportionalSplit is the carbon- and price-blind baseline: load shares
// proportional to site capacity, run by the same split as Fleet.Step. It
// returns the same outcome structure so runs are directly comparable, and
// shares Step's guards (horizon, load, capacity, V). It feeds no step
// metrics; only its solver failures count.
func (sys *System) ProportionalSplit(lambda float64, v float64) (StepOutcome, error) {
	return sys.proportional(lambda, v, 0, sys)
}
