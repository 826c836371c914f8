package geo

import (
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/renewable"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file is the fleet-scale engine: a Fleet gives every site a full
// heterogeneous cluster driven by its own GSD chain — the "100k+ servers,
// 256+ sites, one machine" setting. Each site owns a gsd.Solver whose
// seed and warm starts never mix with another site's, so the core's
// fan-out decides only *when* a site's solve runs, never what it computes.

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

func (s *FleetSite) supply() supply { return supply{s.Name, s.Price, s.Portfolio, s.CapacityRPS()} }

// Fleet is a federation of heterogeneous-cluster sites, each running its
// own GSD solver chain, stepped slot by slot like System.
type Fleet struct {
	federation
	Sites []FleetSite

	solvers []*gsd.Solver // per-site shard: own advancing seed + warm starts
	workers int

	// Per-site problem scratch reused across Step calls: each instance is
	// handed to the site's pooled solver, which never reads it after its
	// run finishes. Outcome slices stay freshly allocated — they escape to
	// the caller via Settle.
	probs []dcmodel.SlotProblem
}

// FleetStepOutcome aliases the outcome type both engines share, for
// callers that still name it.
type FleetStepOutcome = StepOutcome

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
	fed, err := newFederation(sites, beta, slots)
	if err != nil {
		return nil, err
	}
	f := &Fleet{federation: fed, Sites: sites, probs: make([]dcmodel.SlotProblem, len(sites))}
	for i := range sites {
		siteOpts := opts
		siteOpts.Seed = opts.Seed + uint64(i+1)*fleetSeedStride
		f.solvers = append(f.solvers, &gsd.Solver{Opts: siteOpts})
	}
	return f, nil
}

// SetWorkers bounds Step's whole-site solve fan-out. n in {0, 1} (the
// default) runs sites sequentially; n > 1 fans them across up to n
// goroutines with bit-identical results (the fan-out rules of
// federation.go).
// Negative n is an explicit error, the cliutil.WorkersFor rule.
// Call SetWorkers before stepping.
func (f *Fleet) SetWorkers(n int) error {
	if err := cliutil.WorkersFor("geo.Fleet.SetWorkers", n); err != nil {
		return err
	}
	f.workers = n
	return nil
}

// Instrument attaches fleet metrics (nil detaches): Step feeds the step
// totals and per-site series, Settle the deficit gauges, and each site's
// GSD shard gets its own SolveMetrics view, so shard solve stats
// (iterations, dual rounds, solve wall time) land in site-labeled
// vectors.
func (f *Fleet) Instrument(m *telemetry.FleetMetrics) {
	f.instrument(m)
	for i := range f.solvers {
		var sm *telemetry.SolveMetrics
		if m != nil {
			sm = m.SiteSolveMetrics(f.Sites[i].Name)
		}
		f.solvers[i].Opts.Metrics = sm
	}
}

// solveSite is Fleet's per-site P3: the site's heterogeneous cluster under
// its own COCA weights, solved on its GSD shard. The instance lives in the
// fleet's per-site scratch slot, so stepping allocates no problem structs.
func (f *Fleet) solveSite(k int, v, mu float64, so *SiteOutcome) error {
	cl := f.Sites[k].Cluster
	we, wd, onsiteKW := f.weights(k, v)
	p := &f.probs[k]
	*p = dcmodel.SlotProblem{
		Cluster:   cl,
		LambdaRPS: mu,
		We:        we, Wd: wd,
		OnsiteKW: onsiteKW,
	}
	sol, err := f.solvers[k].Solve(p)
	if err != nil {
		return err
	}
	so.Active, so.Value = cl.ActiveServers(sol.Speeds), sol.Value
	f.charge(k, so, cl.FacilityPowerKW(sol.Speeds, sol.Load), cl.DelayCost(sol.Speeds, sol.Load))
	return nil
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
func (f *Fleet) Step(lambda, v float64) (StepOutcome, error) {
	start := f.clock()
	out, err := f.proportional(lambda, v, f.workers, f)
	if err != nil {
		return StepOutcome{}, err
	}
	f.observe(&out, start)
	return out, nil
}
