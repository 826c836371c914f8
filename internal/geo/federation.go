package geo

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/dcmodel"
	"repro/internal/lyapunov"
	"repro/internal/renewable"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// This file is the federation core System and Fleet share: everything
// COCA does per site whether its P3 is solved in closed form or by GSD —
// one carbon-deficit queue, the Eq. (16) weights from that queue and the
// site's price, one dcmodel.Ledger charge, and the settle against off-site
// supply. The fan-out is index-addressed (a site job writes only its own
// outcome slot), errors reduce to the lowest site index, and totals
// accumulate in site order after the barrier, so any worker count yields
// bit-identical outcomes, which the golden parity tests pin.

// SiteOutcome is one site's share of a stepped slot.
type SiteOutcome struct {
	LoadRPS   float64
	Speed     int // the operated speed level of a homogeneous site; 0 for a cluster site
	Active    int // servers running at positive speed
	PowerKW   float64
	GridKWh   float64
	DelayCost float64
	CostUSD   float64 // the site's dcmodel.Ledger charge: w_k·grid + β·delay
	Value     float64 // the site's P3 objective at the solved configuration
}

// StepOutcome is a stepped slot across the federation.
type StepOutcome struct {
	Sites        []SiteOutcome
	TotalCostUSD float64
	TotalGridKWh float64
}

// SettleObserver is a per-slot instrumentation hook: it receives each
// settled slot's index and outcome after the deficit queues have absorbed
// it, before the clock advances. Observers must not mutate the outcome;
// they are for metrics, request-level replays and tests — the federation
// analogue of sim.Observer.
type SettleObserver func(slot int, out StepOutcome)

// supply is the engine-independent side of one site: its name, price and
// renewable portfolio, and its γ-discounted top-speed capacity.
type supply struct {
	name      string
	price     *trace.Trace
	portfolio *renewable.Portfolio
	capRPS    float64
}

// federation is the per-site machinery System and Fleet embed. It caches
// every site's supply at construction, so an engine's Sites must not be
// reassigned afterwards.
type federation struct {
	Beta  float64
	Slots int

	sites  []supply
	queues []*lyapunov.DeficitQueue
	capRPS float64 // Σ site capacities, summed in site order
	slot   int
	errs   []error // per-site fan-out error scratch

	metrics   *telemetry.FleetMetrics
	siteInstr []*telemetry.FleetSiteMetrics // index-aligned with sites
	settleOb  SettleObserver
}

// siteSpec is what the core needs of an engine's site type.
type siteSpec[S any] interface {
	*S
	Validate(slots int) error
	supply() supply
}

// newFederation validates the federation-wide parameters and every site,
// rejects duplicate site names — per-site metric and replay series are
// keyed by name — and creates one carbon-deficit queue per site.
func newFederation[S any, P siteSpec[S]](sites []S, beta float64, slots int) (federation, error) {
	if len(sites) == 0 {
		return federation{}, errors.New("geo: no sites")
	}
	if err := dcmodel.CheckBeta(beta); err != nil {
		return federation{}, fmt.Errorf("geo: %w", err)
	}
	if slots <= 0 {
		return federation{}, errors.New("geo: non-positive horizon")
	}
	k := len(sites)
	f := federation{
		Beta: beta, Slots: slots,
		sites:  make([]supply, k),
		queues: make([]*lyapunov.DeficitQueue, k),
		errs:   make([]error, k),
	}
	seen := make(map[string]bool, k)
	for i := range sites {
		site := P(&sites[i])
		if err := site.Validate(slots); err != nil {
			return federation{}, err
		}
		s := site.supply()
		if seen[s.name] {
			return federation{}, fmt.Errorf("geo: duplicate site name %q", s.name)
		}
		seen[s.name] = true
		f.sites[i] = s
		f.queues[i] = lyapunov.NewDeficitQueue(s.portfolio.Alpha, s.portfolio.RECPerSlotKWh(slots))
		f.capRPS += s.capRPS
	}
	return f, nil
}

// TotalCapacityRPS returns the federation's aggregate γ-discounted
// capacity.
func (f *federation) TotalCapacityRPS() float64 { return f.capRPS }

// Queue exposes site k's deficit-queue length.
func (f *federation) Queue(k int) float64 { return f.queues[k].Len() }

// Slot returns the next slot to be stepped.
func (f *federation) Slot() int { return f.slot }

// guard is the one step guard: the horizon is not exhausted, the load is
// finite, non-negative and within the aggregate capacity, and the control
// parameter V is finite and non-negative.
func (f *federation) guard(lambda, v float64) error {
	if f.slot >= f.Slots {
		return errors.New("geo: horizon exhausted")
	}
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return fmt.Errorf("geo: load %v is not finite", lambda)
	}
	if lambda < 0 {
		return errors.New("geo: negative load")
	}
	if lambda > f.capRPS {
		return fmt.Errorf("geo: load %v exceeds capacity %v", lambda, f.capRPS)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("geo: control parameter V %v is not finite and non-negative", v)
	}
	return nil
}

// weights returns site k's Eq. (16) P3 weights for the current slot, from
// its own deficit queue and price, and the slot's on-site supply.
func (f *federation) weights(k int, v float64) (we, wd, onsiteKW float64) {
	s := &f.sites[k]
	we, wd = dcmodel.P3Weights(v, f.queues[k].Len(), s.price.Values[f.slot], f.Beta)
	return we, wd, s.portfolio.OnsiteKW.Values[f.slot]
}

// charge bills site k's operated configuration through the slot's
// dcmodel.Ledger — the accounting internal/sim and internal/core share —
// and records the charge in so.
func (f *federation) charge(k int, so *SiteOutcome, powerKW, delayCost float64) {
	s := &f.sites[k]
	led := dcmodel.Ledger{
		PriceUSDPerKWh: s.price.Values[f.slot],
		OnsiteKW:       s.portfolio.OnsiteKW.Values[f.slot],
		Beta:           f.Beta,
		Alpha:          s.portfolio.Alpha,
		RECPerSlotKWh:  s.portfolio.RECPerSlotKWh(f.Slots),
	}
	ch := led.Charge(powerKW, delayCost, 0)
	so.PowerKW, so.GridKWh, so.DelayCost, so.CostUSD = ch.PowerKW, ch.GridKWh, ch.DelayCost, ch.TotalUSD
}

// siteSolver is an engine's per-site P3: solve site i at load mu and
// record the configuration, billed through charge, in so.
type siteSolver interface {
	solveSite(i int, v, mu float64, so *SiteOutcome) error
}

// proportional runs the capacity-proportional split behind Fleet.Step and
// System.ProportionalSplit: site i carries λ·cap_i/Σcap, and every loaded
// site is solved by eng across up to workers goroutines. Every solver
// failure counts into the metrics; the lowest-index one is returned.
func (f *federation) proportional(lambda, v float64, workers int, eng siteSolver) (StepOutcome, error) {
	if err := f.guard(lambda, v); err != nil {
		return StepOutcome{}, err
	}
	out := StepOutcome{Sites: make([]SiteOutcome, len(f.sites))}
	errs := f.errs
	workpool.Fan(workers, len(f.sites), func(i int) {
		so := &out.Sites[i]
		errs[i] = nil
		if lambda > 0 {
			so.LoadRPS = lambda * f.sites[i].capRPS / f.capRPS
		}
		if so.LoadRPS > 0 {
			if err := eng.solveSite(i, v, so.LoadRPS, so); err != nil {
				errs[i] = fmt.Errorf("geo: site %s: %w", f.sites[i].name, err)
				if f.metrics != nil {
					f.metrics.SolveErrors.Inc() // atomic: safe across the fan-out
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return StepOutcome{}, err
		}
	}
	out.total()
	return out, nil
}

// total accumulates the outcome's totals in site order.
func (out *StepOutcome) total() {
	for i := range out.Sites {
		out.TotalCostUSD += out.Sites[i].CostUSD
		out.TotalGridKWh += out.Sites[i].GridKWh
	}
}

// Settle finishes the slot: every site's deficit queue absorbs its
// realized grid draw against its own off-site generation, the settle
// observer sees the slot, and the clock advances.
func (f *federation) Settle(out StepOutcome) {
	t := f.slot
	for i := range f.sites {
		f.queues[i].Update(out.Sites[i].GridKWh, f.sites[i].portfolio.OffsiteKWh.Values[t])
		if f.metrics != nil {
			f.siteInstr[i].DeficitKWh.Set(f.queues[i].Len())
		}
	}
	if f.settleOb != nil {
		f.settleOb(t, out)
	}
	f.slot++
}

// SetSettleObserver attaches the per-slot settle hook (nil detaches). The
// observer runs synchronously inside Settle; it sees the slot index being
// settled and the outcome Settle was called with.
func (f *federation) SetSettleObserver(ob SettleObserver) { f.settleOb = ob }

// instrument attaches the shared metrics (nil detaches), interning each
// site's label tuple once so per-step emission is allocation-free.
// Instrumentation never changes outcomes: it only reads settled values,
// in site order.
func (f *federation) instrument(m *telemetry.FleetMetrics) {
	f.metrics, f.siteInstr = m, nil
	if m == nil {
		return
	}
	f.siteInstr = make([]*telemetry.FleetSiteMetrics, len(f.sites))
	for i := range f.sites {
		f.siteInstr[i] = m.Site(f.sites[i].name)
	}
}

// clock returns a step's start time when instrumented and the zero time
// otherwise, so a bare step never reads the clock.
func (f *federation) clock() time.Time {
	if f.metrics == nil {
		return time.Time{}
	}
	return time.Now()
}

// observe folds a stepped slot into the metrics in site order: each site's
// load, cost and grid draw, then the totals and the wall time since start.
func (f *federation) observe(out *StepOutcome, start time.Time) {
	if f.metrics == nil {
		return
	}
	for i := range out.Sites {
		si, so := f.siteInstr[i], &out.Sites[i]
		si.LoadRPS.Add(so.LoadRPS)
		si.CostUSD.Add(so.CostUSD)
		si.GridKWh.Add(so.GridKWh)
	}
	f.metrics.ObserveStep(out.TotalCostUSD, out.TotalGridKWh, time.Since(start).Seconds())
}
