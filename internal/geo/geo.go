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
	"repro/internal/lyapunov"
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

// System is a federation of sites under one global workload.
type System struct {
	Sites []Site
	Beta  float64
	Slots int

	queues  []*lyapunov.DeficitQueue
	slot    int
	tracer  *span.Tracer
	metrics *telemetry.GeoMetrics
}

// SetTracer attaches a span tracer: every subsequent Step records a
// geo.step root span with one geo.site child per site (allocated load,
// chunk count, deficit queue, the operated speed/active and costs).
// Steps start *root* spans — geo systems are often stepped inside pooled
// experiment workers, and a root never adopts a stranger's open span.
// Nil (the default) disables tracing.
func (sys *System) SetTracer(tr *span.Tracer) { sys.tracer = tr }

// Instrument attaches federation metrics: Step feeds the per-site
// counters and Settle the deficit gauges. Nil (the default) disables
// instrumentation.
func (sys *System) Instrument(m *telemetry.GeoMetrics) { sys.metrics = m }

// NewSystem validates and assembles the federation, creating one
// carbon-deficit queue per site.
func NewSystem(sites []Site, beta float64, slots int) (*System, error) {
	if len(sites) == 0 {
		return nil, errors.New("geo: no sites")
	}
	if beta < 0 {
		return nil, errors.New("geo: negative beta")
	}
	if slots <= 0 {
		return nil, errors.New("geo: non-positive horizon")
	}
	sys := &System{Sites: sites, Beta: beta, Slots: slots}
	for i := range sites {
		if err := sites[i].Validate(slots); err != nil {
			return nil, err
		}
		sys.queues = append(sys.queues, lyapunov.NewDeficitQueue(
			sites[i].Portfolio.Alpha,
			sites[i].Portfolio.RECPerSlotKWh(slots),
		))
	}
	return sys, nil
}

// TotalCapacityRPS returns the federation's aggregate capacity.
func (sys *System) TotalCapacityRPS() float64 {
	var c float64
	for i := range sys.Sites {
		c += sys.Sites[i].CapacityRPS()
	}
	return c
}

// Queue exposes site k's deficit-queue length.
func (sys *System) Queue(k int) float64 { return sys.queues[k].Len() }

// Slot returns the next slot to be stepped.
func (sys *System) Slot() int { return sys.slot }

// SiteOutcome is one site's share of a stepped slot.
type SiteOutcome struct {
	LoadRPS   float64
	Speed     int
	Active    int
	PowerKW   float64
	GridKWh   float64
	DelayCost float64
	CostUSD   float64 // the site's dcmodel.Ledger charge: w_k·grid + β·delay
}

// StepOutcome is a stepped slot across the federation.
type StepOutcome struct {
	Sites        []SiteOutcome
	TotalCostUSD float64
	TotalGridKWh float64
}

// siteProblem builds site k's P3 instance for the slot at load mu.
func (sys *System) siteProblem(k int, v, mu float64) *p3.HomogeneousProblem {
	site := &sys.Sites[k]
	t := sys.slot
	we, wd := dcmodel.P3Weights(v, sys.queues[k].Len(), site.Price.Values[t], sys.Beta)
	return &p3.HomogeneousProblem{
		Type: site.Server, N: site.N,
		Gamma: site.Gamma, PUE: site.PUE,
		LambdaRPS: mu,
		We:        we, Wd: wd,
		OnsiteKW: site.Portfolio.OnsiteKW.Values[t],
	}
}

// siteLedger builds site k's slot-cost kernel for the current slot. All
// site charging goes through it, so geo shares the exact accounting of
// internal/sim and internal/core.
func (sys *System) siteLedger(k int) dcmodel.Ledger {
	site := &sys.Sites[k]
	t := sys.slot
	return dcmodel.Ledger{
		PriceUSDPerKWh: site.Price.Values[t],
		OnsiteKW:       site.Portfolio.OnsiteKW.Values[t],
		Beta:           sys.Beta,
		Alpha:          site.Portfolio.Alpha,
		RECPerSlotKWh:  site.Portfolio.RECPerSlotKWh(sys.Slots),
	}
}

// validateStep guards every federation step, System's and Fleet's alike:
// the horizon is not exhausted, the load is finite, non-negative and within
// the aggregate capacity, and the control parameter V is finite and
// non-negative.
func validateStep(slot, slots int, lambda, capacityRPS, v float64) error {
	if slot >= slots {
		return errors.New("geo: horizon exhausted")
	}
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return fmt.Errorf("geo: load %v is not finite", lambda)
	}
	if lambda < 0 {
		return errors.New("geo: negative load")
	}
	if lambda > capacityRPS {
		return fmt.Errorf("geo: load %v exceeds capacity %v", lambda, capacityRPS)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("geo: control parameter V %v is not finite and non-negative", v)
	}
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
// abort the step and count into geo.solve_errors; capacity infeasibility
// never does — a full site is a legitimate split answer.
func (sys *System) Step(lambda float64, v float64) (StepOutcome, error) {
	if err := validateStep(sys.slot, sys.Slots, lambda, sys.TotalCapacityRPS(), v); err != nil {
		return StepOutcome{}, err
	}
	k := len(sys.Sites)
	stepSpan := sys.tracer.StartRoot("geo.step",
		span.Int("slot", sys.slot), span.Float("lambda_rps", lambda),
		span.Float("v", v), span.Int("sites", k))
	defer stepSpan.End()
	plan, err := sys.greedySplit(lambda, v)
	if err != nil {
		stepSpan.Set(span.Str("error", err.Error()),
			span.Int("p3_solves", plan.p3Solves), span.Int("memo_hits", plan.memoHits))
		if !errors.Is(err, errNoAbsorb) {
			sys.metrics.IncSolveError()
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
				span.Float("queue_kwh", sys.queues[i].Len()))
		}
		so := SiteOutcome{LoadRPS: plan.split[i]}
		if plan.split[i] > 0 {
			// The site's last winning candidate was solved at exactly this
			// load: reuse it instead of the naive loop's final re-solve.
			sol := plan.sols[i]
			plan.memoHits++
			so.Speed, so.Active = sol.Speed, sol.Active
			ch := sys.siteLedger(i).Charge(sol.PowerKW, sol.DelayCost, 0)
			so.PowerKW, so.GridKWh, so.DelayCost = ch.PowerKW, ch.GridKWh, ch.DelayCost
			so.CostUSD = ch.TotalUSD
		}
		if siteSpan != nil {
			siteSpan.Set(
				span.Int("speed", so.Speed), span.Int("active", so.Active),
				span.Float("cost_usd", so.CostUSD), span.Float("grid_kwh", so.GridKWh))
			siteSpan.End()
		}
		sys.metrics.ObserveSite(sys.Sites[i].Name, so.LoadRPS, plan.chunks[i], so.CostUSD, so.GridKWh)
		out.Sites[i] = so
		out.TotalCostUSD += so.CostUSD
		out.TotalGridKWh += so.GridKWh
	}
	sys.metrics.ObserveStep(out.TotalCostUSD, out.TotalGridKWh)
	sys.metrics.ObserveSplit(plan.p3Solves, plan.memoHits)
	if stepSpan != nil {
		stepSpan.Set(
			span.Float("total_usd", out.TotalCostUSD),
			span.Float("total_grid_kwh", out.TotalGridKWh),
			span.Int("p3_solves", plan.p3Solves),
			span.Int("memo_hits", plan.memoHits))
	}
	return out, nil
}

// Settle finishes the slot: every site's deficit queue absorbs its
// realized grid draw against its own off-site generation, and the clock
// advances.
func (sys *System) Settle(out StepOutcome) {
	t := sys.slot
	for i := range sys.Sites {
		sys.queues[i].Update(out.Sites[i].GridKWh, sys.Sites[i].Portfolio.OffsiteKWh.Values[t])
		sys.metrics.SetDeficit(sys.Sites[i].Name, sys.queues[i].Len())
	}
	sys.slot++
}

// ProportionalSplit is the carbon- and price-blind baseline: load shares
// proportional to site capacity. It returns the same outcome structure so
// runs are directly comparable, and shares Step's guards (horizon, load,
// capacity, V).
func (sys *System) ProportionalSplit(lambda float64, v float64) (StepOutcome, error) {
	total := sys.TotalCapacityRPS()
	if err := validateStep(sys.slot, sys.Slots, lambda, total, v); err != nil {
		return StepOutcome{}, err
	}
	out := StepOutcome{Sites: make([]SiteOutcome, len(sys.Sites))}
	for i := range sys.Sites {
		mu := lambda * sys.Sites[i].CapacityRPS() / total
		so := SiteOutcome{LoadRPS: mu}
		if mu > 0 {
			sol, err := sys.siteProblem(i, v, mu).Solve()
			if err != nil {
				return StepOutcome{}, err
			}
			so.Speed, so.Active = sol.Speed, sol.Active
			ch := sys.siteLedger(i).Charge(sol.PowerKW, sol.DelayCost, 0)
			so.PowerKW, so.GridKWh, so.DelayCost = ch.PowerKW, ch.GridKWh, ch.DelayCost
			so.CostUSD = ch.TotalUSD
		}
		out.Sites[i] = so
		out.TotalCostUSD += so.CostUSD
		out.TotalGridKWh += so.GridKWh
	}
	return out, nil
}
