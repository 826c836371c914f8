package geo

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cliutil"
	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/lyapunov"
	"repro/internal/renewable"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// This file is the fleet-scale federation: System models every site as a
// homogeneous deployment solved in closed form (p3.HomogeneousProblem), a
// Fleet gives every site a full heterogeneous cluster driven by its own GSD
// chain — the "100k+ servers, 256+ sites, one machine" setting. Two design
// rules make it scale and stay reproducible:
//
//   - The GSD chain is sharded per site. Each site owns a gsd.Solver whose
//     advancing seed and warm-start state never mix with another site's, so
//     whole-site P3 solves are embarrassingly parallel: the schedule decides
//     only *when* a site's slot solve runs, never what it computes.
//   - Every fan-out is index-addressed (a site job writes only its own
//     outcome slot), errors reduce to the lowest site index, and totals
//     accumulate sequentially in site order after the barrier. Any worker
//     count — including the sequential 0/1 path — therefore produces
//     bit-identical outcomes, which the golden parity tests pin.

// FleetSite is one data center of a Fleet: a heterogeneous cluster under
// its own electricity price, renewable portfolio and carbon-deficit queue.
type FleetSite struct {
	Name      string
	Cluster   *dcmodel.Cluster
	Price     *trace.Trace         // w_k(t) in $/kWh
	Portfolio *renewable.Portfolio // r_k(t), f_k(t), Z_k, α_k
}

// Validate reports whether the site is well formed for the horizon.
func (s *FleetSite) Validate(slots int) error {
	if s.Cluster == nil {
		return fmt.Errorf("geo: fleet site %q has no cluster", s.Name)
	}
	if err := s.Cluster.Validate(); err != nil {
		return fmt.Errorf("geo: fleet site %q: %w", s.Name, err)
	}
	if s.Price == nil || s.Price.Len() < slots {
		return fmt.Errorf("geo: fleet site %q price trace short", s.Name)
	}
	if s.Portfolio == nil {
		return fmt.Errorf("geo: fleet site %q missing portfolio", s.Name)
	}
	return s.Portfolio.Validate(slots)
}

// CapacityRPS returns the site's γ-discounted top-speed capacity.
func (s *FleetSite) CapacityRPS() float64 {
	return s.Cluster.Gamma * s.Cluster.MaxCapacityRPS()
}

// Fleet is a federation of heterogeneous-cluster sites, each running its
// own GSD solver chain, stepped slot by slot like System.
type Fleet struct {
	Sites []FleetSite
	Beta  float64
	Slots int

	queues  []*lyapunov.DeficitQueue
	solvers []*gsd.Solver // per-site shard: own advancing seed + warm starts
	slot    int
	workers int

	// Per-slot scratch reused across Step calls: site problem instances
	// (each handed to the pooled per-site solver, which never reads one
	// after its run finishes) and the fan-out error slots. Outcome slices
	// stay freshly allocated — they escape to the caller via Settle.
	probs []dcmodel.SlotProblem
	errs  []error

	metrics   *telemetry.FleetMetrics
	siteInstr []*telemetry.FleetSiteMetrics // cached per-site handles, index-aligned with Sites

	settleOb SettleObserver
}

// SettleObserver is a per-slot instrumentation hook for fleet runs: it
// receives each settled slot's index and outcome after the deficit queues
// have absorbed it, before the clock advances. Observers must not mutate
// the outcome; they are for metrics, request-level replays and tests —
// the fleet analogue of sim.Observer.
type SettleObserver func(slot int, out FleetStepOutcome)

// fleetSeedStride decorrelates per-site GSD seeds: site i's chain starts at
// base + (i+1)·stride (a splitmix64-style odd constant), so sites never
// replay each other's sample paths while the whole fleet stays a pure
// function of the base seed.
const fleetSeedStride = 0x9E3779B97F4A7C15

// NewFleet validates and assembles the fleet. opts configures every site's
// GSD solver (iteration budget, temperature, patience); opts.Seed is the
// base seed the per-site chains are derived from. One carbon-deficit queue
// per site, exactly like NewSystem.
func NewFleet(sites []FleetSite, beta float64, slots int, opts gsd.Options) (*Fleet, error) {
	if len(sites) == 0 {
		return nil, errors.New("geo: no sites")
	}
	if beta < 0 {
		return nil, errors.New("geo: negative beta")
	}
	if slots <= 0 {
		return nil, errors.New("geo: non-positive horizon")
	}
	f := &Fleet{Sites: sites, Beta: beta, Slots: slots}
	for i := range sites {
		if err := sites[i].Validate(slots); err != nil {
			return nil, err
		}
		f.queues = append(f.queues, lyapunov.NewDeficitQueue(
			sites[i].Portfolio.Alpha,
			sites[i].Portfolio.RECPerSlotKWh(slots),
		))
		siteOpts := opts
		siteOpts.Seed = opts.Seed + uint64(i+1)*fleetSeedStride
		f.solvers = append(f.solvers, &gsd.Solver{Opts: siteOpts})
	}
	return f, nil
}

// SetWorkers bounds Step's whole-site solve fan-out. n in {0, 1} (the
// default) runs sites sequentially; n > 1 fans them across up to n
// goroutines with bit-identical results (see the design rules above).
// Negative n is an explicit error, the cliutil.WorkersFor rule.
// Call SetWorkers before stepping.
func (f *Fleet) SetWorkers(n int) error {
	if err := cliutil.WorkersFor("geo.Fleet.SetWorkers", n); err != nil {
		return err
	}
	f.workers = n
	return nil
}

// Instrument attaches fleet metrics (nil detaches). Per-site label
// tuples are interned here, once, and the resulting plain-instrument
// handles cached index-aligned with Sites, so the per-site emission in
// Step is allocation-free: counter adds and histogram observes on
// already-interned children, no map lookups, no label encoding. Each
// site's GSD shard also gets its own SolveMetrics view, so shard solve
// stats (iterations, dual rounds, solve wall time) land in the same
// site-labeled vectors. Instrumentation never changes outcomes: it only
// reads settled values after the fan-out barrier, in site order.
func (f *Fleet) Instrument(m *telemetry.FleetMetrics) {
	f.metrics = m
	f.siteInstr = nil
	if m == nil {
		for i := range f.solvers {
			f.solvers[i].Opts.Metrics = nil
		}
		return
	}
	f.siteInstr = make([]*telemetry.FleetSiteMetrics, len(f.Sites))
	for i := range f.Sites {
		f.siteInstr[i] = m.Site(f.Sites[i].Name)
		f.solvers[i].Opts.Metrics = m.SiteSolveMetrics(f.Sites[i].Name)
	}
}

// TotalCapacityRPS returns the fleet's aggregate γ-discounted capacity.
func (f *Fleet) TotalCapacityRPS() float64 {
	var c float64
	for i := range f.Sites {
		c += f.Sites[i].CapacityRPS()
	}
	return c
}

// TotalServers returns the number of servers across the fleet.
func (f *Fleet) TotalServers() int {
	n := 0
	for i := range f.Sites {
		n += f.Sites[i].Cluster.TotalServers()
	}
	return n
}

// Queue exposes site k's deficit-queue length.
func (f *Fleet) Queue(k int) float64 { return f.queues[k].Len() }

// Slot returns the next slot to be stepped.
func (f *Fleet) Slot() int { return f.slot }

// FleetSiteOutcome is one site's share of a stepped fleet slot.
type FleetSiteOutcome struct {
	LoadRPS   float64
	Active    int // servers in groups running at positive speed
	PowerKW   float64
	GridKWh   float64
	DelayCost float64
	CostUSD   float64 // the site's dcmodel.Ledger charge: w_k·grid + β·delay
	Value     float64 // the site's P3 objective at the solved configuration
}

// FleetStepOutcome is a stepped slot across the fleet.
type FleetStepOutcome struct {
	Sites        []FleetSiteOutcome
	TotalCostUSD float64
	TotalGridKWh float64
}

// siteProblem builds site k's heterogeneous P3 instance for the slot at
// load mu, with the COCA weights of Eq. (16) from the site's own price and
// deficit queue. The instance lives in the fleet's per-site scratch slot —
// site k's solver finishes with it before the next Step rewrites it — so
// stepping allocates no problem structs.
func (f *Fleet) siteProblem(k int, v, mu float64) *dcmodel.SlotProblem {
	site := &f.Sites[k]
	t := f.slot
	we, wd := dcmodel.P3Weights(v, f.queues[k].Len(), site.Price.Values[t], f.Beta)
	p := &f.probs[k]
	*p = dcmodel.SlotProblem{
		Cluster:   site.Cluster,
		LambdaRPS: mu,
		We:        we, Wd: wd,
		OnsiteKW: site.Portfolio.OnsiteKW.Values[t],
	}
	return p
}

// siteLedger builds site k's slot-cost kernel for the current slot,
// identical to System.siteLedger.
func (f *Fleet) siteLedger(k int) dcmodel.Ledger {
	site := &f.Sites[k]
	t := f.slot
	return dcmodel.Ledger{
		PriceUSDPerKWh: site.Price.Values[t],
		OnsiteKW:       site.Portfolio.OnsiteKW.Values[t],
		Beta:           f.Beta,
		Alpha:          site.Portfolio.Alpha,
		RECPerSlotKWh:  site.Portfolio.RECPerSlotKWh(f.Slots),
	}
}

// Step splits lambda across the sites proportionally to capacity, solves
// every loaded site's whole-cluster P3 on its own GSD shard (fanned across
// the SetWorkers pool), charges each site through its Ledger, and returns
// the outcome. Call Settle with the outcome afterwards.
//
// The split is capacity-proportional rather than greedy-marginal: at fleet
// scale a per-chunk GSD re-solve per site (the System.Step discipline)
// would cost Chunks·K whole-cluster chains per slot; the proportional split
// needs exactly one solve per loaded site while the per-site COCA weights
// still steer each site's own speed/load decisions by price and deficit.
func (f *Fleet) Step(lambda, v float64) (FleetStepOutcome, error) {
	total := f.TotalCapacityRPS()
	if err := validateStep(f.slot, f.Slots, lambda, total, v); err != nil {
		return FleetStepOutcome{}, err
	}
	var stepStart time.Time
	if f.metrics != nil {
		stepStart = time.Now()
	}
	k := len(f.Sites)
	out := FleetStepOutcome{Sites: make([]FleetSiteOutcome, k)}
	if f.probs == nil {
		f.probs = make([]dcmodel.SlotProblem, k)
		f.errs = make([]error, k)
	}
	errs := f.errs
	for i := range errs {
		errs[i] = nil
	}
	workpool.Fan(f.workers, k, func(i int) {
		mu := 0.0
		if lambda > 0 {
			mu = lambda * f.Sites[i].CapacityRPS() / total
		}
		so := FleetSiteOutcome{LoadRPS: mu}
		if mu > 0 {
			p := f.siteProblem(i, v, mu)
			sol, err := f.solvers[i].Solve(p)
			if err != nil {
				errs[i] = fmt.Errorf("geo: fleet site %s: %w", f.Sites[i].Name, err)
				return
			}
			cl := f.Sites[i].Cluster
			so.Active = cl.ActiveServers(sol.Speeds)
			so.Value = sol.Value
			ch := f.siteLedger(i).Charge(
				cl.FacilityPowerKW(sol.Speeds, sol.Load),
				cl.DelayCost(sol.Speeds, sol.Load), 0)
			so.PowerKW, so.GridKWh, so.DelayCost = ch.PowerKW, ch.GridKWh, ch.DelayCost
			so.CostUSD = ch.TotalUSD
		}
		out.Sites[i] = so
	})
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			if f.metrics != nil {
				for j := i; j < k; j++ {
					if errs[j] != nil {
						f.siteInstr[j].SolveErrors.Inc()
					}
				}
			}
			return FleetStepOutcome{}, errs[i]
		}
		out.TotalCostUSD += out.Sites[i].CostUSD
		out.TotalGridKWh += out.Sites[i].GridKWh
	}
	if f.metrics != nil {
		for i := 0; i < k; i++ {
			si, so := f.siteInstr[i], &out.Sites[i]
			si.LoadRPS.Add(so.LoadRPS)
			si.CostUSD.Add(so.CostUSD)
			si.GridKWh.Add(so.GridKWh)
		}
		f.metrics.ObserveStep(out.TotalCostUSD, out.TotalGridKWh, time.Since(stepStart).Seconds())
	}
	return out, nil
}

// Settle finishes the slot: every site's deficit queue absorbs its realized
// grid draw against its own off-site generation, and the clock advances.
func (f *Fleet) Settle(out FleetStepOutcome) {
	t := f.slot
	for i := range f.Sites {
		f.queues[i].Update(out.Sites[i].GridKWh, f.Sites[i].Portfolio.OffsiteKWh.Values[t])
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
func (f *Fleet) SetSettleObserver(ob SettleObserver) { f.settleOb = ob }
