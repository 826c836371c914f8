package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dcmodel"
	"repro/internal/geo"
	"repro/internal/gsd"
	"repro/internal/price"
	"repro/internal/renewable"
	"repro/internal/reqsim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/trace"
)

// fleetConfig sizes one geo.Fleet workload. Both fleet workloads use the
// `cocasim -scale` site recipe, the same GSD budget and the same load curve;
// they differ in size and in the request-level replay on every Settle.
type fleetConfig struct {
	golden      string // golden.json key; empty skips the golden check
	groups      int
	sites       int
	replay      bool // bursty reqsim.FleetReplayer on every Settle
	workers     int  // fan-out of the site solves and the replay
	warm        int  // warm-up slots before timing
	goldenSlots int  // slots (warm-up included) the result hash covers
	traceSlots  int  // timed slots in each arm of the trace-overhead pair
}

func fleet100k() fleetConfig {
	return fleetConfig{golden: "fleet-100k", groups: 9984, sites: 256, workers: benchWorkers, warm: 4, goldenSlots: 24, traceSlots: 4}
}

// fleetReplay runs at one worker: on the two vCPUs of the box the bounds
// were measured on, a second replay worker added between 0% and 35%
// throughput from run to run, which no regression bound can absorb, while
// one worker repeats within a few percent.
func fleetReplay() fleetConfig {
	return fleetConfig{golden: "fleet-replay", groups: 192, sites: 16, replay: true, workers: 1, warm: 4, goldenSlots: 24, traceSlots: 24}
}

const (
	fleetServersPerGroup = 10
	fleetMaxIters        = 60
	fleetDelta           = 1e4
	fleetBeta            = 0.005
	fleetV               = 5e5
	fleetHorizon         = 8760 // the price traces' length: one year of slots
	fleetParitySlots     = 2
	replayRequests       = 200_000
)

// fleetSites is the `cocasim -scale` recipe: heterogeneous clusters under
// staggered CAISO-like prices and renewables.
func fleetSites(sites, groupsPerSite int) []geo.FleetSite {
	out := make([]geo.FleetSite, sites)
	for i := range out {
		p := price.CAISOYear(uint64(i + 1))
		scale := 0.4 + 0.15*float64(i%5)
		for j := range p.Values {
			p.Values[j] *= scale
		}
		out[i] = geo.FleetSite{
			Name:    fmt.Sprintf("f%03d", i),
			Cluster: dcmodel.HeterogeneousCluster(groupsPerSite*fleetServersPerGroup, groupsPerSite),
			Price:   p,
			Portfolio: &renewable.Portfolio{
				OnsiteKW:   trace.Constant("r", float64(i%3), fleetHorizon),
				OffsiteKWh: trace.Constant("f", 20, fleetHorizon),
				RECsKWh:    float64(fleetHorizon) * 30,
				Alpha:      1,
			},
		}
	}
	return out
}

// fleetLoad is slot t's arrival rate as a share of capacity: a diurnal
// curve with ±5% seeded jitter.
func fleetLoad(seed uint64, t int) float64 {
	return (0.40 + 0.25*math.Sin(2*math.Pi*float64(t)/24)) * (1 + 0.05*(2*unit(seed, t)-1))
}

// fleetSys is one fleet under test plus the bench's timers around it.
type fleetSys struct {
	cfg    fleetConfig
	seed   uint64
	fleet  *geo.Fleet
	replay *reqsim.FleetReplayer
	capRPS float64
	tr     *span.Tracer
	reg    *telemetry.Registry // nil: bare fleet, no per-layer timers

	hash           fnv64 // over every settled slot's outcome
	parity, result string

	// Per-layer timers, summed since the last resetTimers.
	stepWall, settleWall     time.Duration
	replayWall               time.Duration
	stepAllocs, replayAllocs uint64
	rt                       rtReader
}

// newFleetSys builds a fleet with the given fan-out. A non-nil reg
// attaches the fleet and replay metrics plus the bench's per-layer timers;
// a non-nil tr records GSD, replay and bench spans.
func newFleetSys(cfg fleetConfig, seed uint64, workers int, reg *telemetry.Registry, tr *span.Tracer) (*fleetSys, error) {
	f, err := geo.NewFleet(fleetSites(cfg.sites, cfg.groups/cfg.sites), fleetBeta, fleetHorizon,
		gsd.Options{Delta: fleetDelta, MaxIters: fleetMaxIters, Seed: seed, Tracer: tr})
	if err != nil {
		return nil, err
	}
	if err := f.SetWorkers(workers); err != nil {
		return nil, err
	}
	s := &fleetSys{cfg: cfg, seed: seed, fleet: f, capRPS: f.TotalCapacityRPS(), tr: tr, reg: reg, hash: newFNV()}
	if reg != nil {
		f.Instrument(telemetry.NewFleetMetrics(reg, "fleet"))
	}
	if cfg.replay {
		names := make([]string, len(f.Sites))
		for i := range f.Sites {
			names[i] = f.Sites[i].Name
		}
		var rm *telemetry.ReqsimMetrics
		if reg != nil {
			rm = telemetry.NewReqsimMetrics(reg, "reqsim")
		}
		s.replay = reqsim.NewFleetReplayer(names, reqsim.ReplayOptions{
			Requests: replayRequests, Bursty: true, Workers: workers, Seed: seed, Metrics: rm, Tracer: tr,
		})
		observe := s.replay.Observer()
		if reg == nil {
			f.SetSettleObserver(observe)
		} else {
			f.SetSettleObserver(func(slot int, out geo.FleetStepOutcome) {
				a0, t0 := s.rt.read().allocs, time.Now()
				observe(slot, out)
				s.replayWall += time.Since(t0)
				s.replayAllocs += s.rt.read().allocs - a0
			})
		}
	}
	return s, nil
}

// step runs one closed-loop slot, Step then Settle, and returns their
// combined wall time; the result hash is folded outside the timed calls.
func (s *fleetSys) step() (time.Duration, error) {
	lambda := s.capRPS * fleetLoad(s.seed, s.fleet.Slot())
	var a0 uint64
	if s.reg != nil {
		a0 = s.rt.read().allocs
	}
	sp := s.tr.Start("bench.step")
	t0 := time.Now()
	out, err := s.fleet.Step(lambda, fleetV)
	t1 := time.Now()
	sp.End()
	if err != nil {
		return 0, err
	}
	if s.reg != nil {
		s.stepAllocs += s.rt.read().allocs - a0
	}
	s.hash.floats(out.TotalCostUSD, out.TotalGridKWh)
	for _, so := range out.Sites {
		s.hash.floats(so.LoadRPS, float64(so.Active), so.PowerKW, so.GridKWh, so.DelayCost, so.CostUSD, so.Value)
	}
	sp = s.tr.Start("bench.settle")
	t2 := time.Now()
	s.fleet.Settle(out)
	t3 := time.Now()
	sp.End()
	s.stepWall += t1.Sub(t0)
	s.settleWall += t3.Sub(t2)
	if s.fleet.Slot() == fleetParitySlots {
		s.parity = s.digest()
	}
	if s.fleet.Slot() == s.cfg.goldenSlots {
		s.result = s.digest()
	}
	return t1.Sub(t0) + t3.Sub(t2), nil
}

// digest is the result hash so far: every settled outcome, the deficit
// queues, and the replay report when replaying.
func (s *fleetSys) digest() string {
	h := s.hash
	for i := range s.fleet.Sites {
		h.floats(s.fleet.Queue(i))
	}
	if s.replay != nil {
		rep := s.replay.Report()
		h.u64(uint64(rep.Slots))
		h.u64(uint64(rep.Requests))
		h.u64(uint64(rep.Events))
		h.u64(uint64(rep.Dropped))
		h.floats(rep.MeanAbsRelErr, rep.MaxAbsRelErr)
	}
	return h.String()
}

func (s *fleetSys) resetTimers() {
	s.stepWall, s.settleWall, s.replayWall = 0, 0, 0
	s.stepAllocs, s.replayAllocs = 0, 0
}

func (s *fleetSys) warmUp() error {
	for i := 0; i < s.cfg.warm; i++ {
		if _, err := s.step(); err != nil {
			return fmt.Errorf("warm-up slot %d: %w", i, err)
		}
	}
	s.resetTimers()
	return nil
}

// runFleet runs a fleet workload: set-up, the timed closed loop, the
// correctness checks, and in a traced run the per-layer table.
func runFleet(o options, cfg fleetConfig) (*report, error) {
	r := newReport()
	var reg *telemetry.Registry
	setups := o.setups
	if o.trace {
		reg, setups = telemetry.NewRegistry(), 1
	}
	sys, setupS, err := medianSetup(setups, func() (*fleetSys, func(), error) {
		s, err := newFleetSys(cfg, o.seed, cfg.workers, reg, nil)
		if err != nil {
			return nil, nil, err
		}
		return s, nil, s.warmUp()
	})
	if err != nil {
		return nil, err
	}
	var before telemetry.Snapshot
	if reg != nil {
		before = reg.Snapshot()
	}
	var warmReplay reqsim.ReplayReport
	if sys.replay != nil {
		warmReplay = sys.replay.Report()
	}
	rt0 := readRuntime()
	ms, wall, err := timedLoop(o.duration(), cfg.goldenSlots-cfg.warm, sys.step)
	r.attempted += len(ms)
	if err != nil {
		return nil, fmt.Errorf("slot %d: %w", sys.fleet.Slot(), err)
	}
	rt1 := readRuntime()
	heap := liveHeapMB()

	// Workers=1 and workers=2 must agree bit for bit on the first slots.
	other := 1
	if cfg.workers == 1 {
		other = benchWorkers
	}
	ref, err := newFleetSys(cfg, o.seed, other, nil, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < fleetParitySlots; i++ {
		if _, err := ref.step(); err != nil {
			return nil, fmt.Errorf("parity slot %d: %w", i, err)
		}
	}
	r.check(ref.parity == sys.parity, "workers=%d and workers=%d diverge in the first %d slots: %s vs %s",
		cfg.workers, other, fleetParitySlots, sys.parity, ref.parity)
	r.checkGolden(o, cfg.golden, sys.result)

	n := float64(len(ms))
	if !o.trace {
		r.set("setup_s", setupS)
		r.set("slots_per_s", n/wall.Seconds())
		r.set("live_heap_mb", heap)
		r.latency("slot_ms", ms)
		if sys.replay != nil {
			reqs := sys.replay.Report().Requests - warmReplay.Requests
			r.notef("replay_mreq_per_s %.4f M/s", float64(reqs)/1e6/wall.Seconds())
		}
		return r, nil
	}

	// Per-layer numbers from the instrumented untraced run.
	r.set("geo.step_ms", millis(sys.stepWall)/n)
	r.set("geo.settle_ms", millis(sys.settleWall)/n)
	r.set("geo.allocs_per_slot", float64(sys.stepAllocs)/n)
	after := reg.Snapshot()
	sc := fleetSolveCounts(after).sub(fleetSolveCounts(before))
	sc.layers(r, n)
	r.set("gsd.solver_ms", 1e3*ratio(sc.seconds, sc.solves))
	r.set("workpool.busy_frac", ratio(sc.seconds, sys.stepWall.Seconds()*float64(cfg.workers)))
	r.set("runtime.gc_cpu_frac", gcFrac(rt0, rt1))
	if sys.replay != nil {
		rep := sys.replay.Report()
		events := after.Counters["reqsim.events"] - before.Counters["reqsim.events"]
		r.set("reqsim.replay_ms", millis(sys.replayWall)/n)
		r.set("reqsim.events_per_slot", events/n)
		r.set("reqsim.ns_per_event", ratio(float64(sys.replayWall.Nanoseconds()), events))
		r.set("reqsim.allocs_per_slot", float64(sys.replayAllocs)/n)
		r.set("reqsim.model_err_mean", rep.MeanAbsRelErr)
	}

	// The span arms run at workers=1: the tracer's ambient span stack
	// assumes one goroutine, and a shard solve on another worker would
	// adopt a stranger's open span.
	bareWall, bare, err := fleetArm(cfg, o.seed, nil)
	if err != nil {
		return nil, err
	}
	bareDigest := bare.digest() // lets the untraced fleet go before the traced one is built
	tr := span.NewTracer()
	tracedWall, traced, err := fleetArm(cfg, o.seed, tr)
	if err != nil {
		return nil, err
	}
	r.attempted += 2 * cfg.traceSlots
	r.check(traced.digest() == bareDigest, "traced fleet diverged from the untraced one")
	folded, err := foldTracer(tr)
	if err != nil {
		return nil, err
	}
	r.set("telemetry.trace_overhead_frac", tracedWall.Seconds()/bareWall.Seconds()-1)
	r.set("geo.step_self_ms", folded["bench.step"].meanSelfUS()/1e3)
	gsdSpanLayers(r, folded)
	return r, nil
}

// fleetArm builds an instrumented workers=1 fleet, warms it up, and times
// cfg.traceSlots slots, traced when tr is non-nil (warm-up spans are
// discarded).
func fleetArm(cfg fleetConfig, seed uint64, tr *span.Tracer) (time.Duration, *fleetSys, error) {
	s, err := newFleetSys(cfg, seed, 1, telemetry.NewRegistry(), tr)
	if err != nil {
		return 0, nil, err
	}
	if err := s.warmUp(); err != nil {
		return 0, nil, err
	}
	tr.Reset()
	start := time.Now()
	for i := 0; i < cfg.traceSlots; i++ {
		if _, err := s.step(); err != nil {
			return 0, nil, err
		}
	}
	return time.Since(start), s, nil
}

// solveCounts are the GSD SolveMetrics totals of one run.
type solveCounts struct {
	solves, iters, accepted, cold, windows, evals, hits, wasted, seconds float64
}

func (a solveCounts) sub(b solveCounts) solveCounts {
	return solveCounts{
		solves: a.solves - b.solves, iters: a.iters - b.iters, accepted: a.accepted - b.accepted,
		cold: a.cold - b.cold, windows: a.windows - b.windows, evals: a.evals - b.evals,
		hits: a.hits - b.hits, wasted: a.wasted - b.wasted, seconds: a.seconds - b.seconds,
	}
}

// layers sets the gsd.* counts measured over slots slots.
func (c solveCounts) layers(r *report, slots float64) {
	r.set("gsd.solves_per_slot", c.solves/slots)
	r.set("gsd.iters_per_solve", ratio(c.iters, c.solves))
	r.set("gsd.accept_frac", ratio(c.accepted, c.iters))
	r.set("gsd.cold_fallbacks", c.cold)
	r.set("gsd.spec_hit_frac", ratio(c.hits, c.evals))
	r.set("gsd.spec_wasted_frac", ratio(c.wasted, c.evals))
	r.set("gsd.spec_windows", ratio(c.windows, c.solves))
}

// fleetSolveCounts sums the site-labeled shard series of FleetMetrics.
func fleetSolveCounts(s telemetry.Snapshot) solveCounts {
	sum := func(name string) float64 {
		var v float64
		for _, ser := range s.LabeledCounters["fleet.shard."+name].Series {
			v += ser.Value
		}
		return v
	}
	var secs float64
	for _, ser := range s.LabeledHistograms["fleet.shard.solve_seconds"].Series {
		secs += ser.Hist.Sum
	}
	return solveCounts{
		solves: sum("solves"), iters: sum("iterations"), accepted: sum("accepted_moves"),
		cold: sum("cold_fallbacks"), windows: sum("spec_windows"), evals: sum("spec_evals"),
		hits: sum("spec_hits"), wasted: sum("spec_wasted"), seconds: secs,
	}
}
