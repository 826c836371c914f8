package reqsim

import (
	"fmt"
	"math"

	"repro/internal/dcmodel"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
	"repro/internal/workpool"
)

// Slot and site seed strides (distinct from shardSeedStride so a slot's
// shard seeds never collide with a neighboring slot's): the other two
// splitmix64 mixing constants.
const (
	slotSeedStride = 0xBF58476D1CE4E5B9
	siteSeedStride = 0x94D049BB133111EB
)

// ReplayOptions configures request-level slot replays for both the
// single-site slot pipeline (SlotReplayer) and the geo fleet
// (FleetReplayer).
type ReplayOptions struct {
	// Requests is the target number of simulated requests per replayed
	// slot (the replay horizon is sized so the expected arrival count hits
	// it). Default 200_000.
	Requests int
	// Service is the request-size distribution (mean 1 by the paper's
	// convention). Default ExponentialService(1); pass ParetoService for
	// the heavy-tailed arm.
	Service ServiceSampler
	// Bursty replaces Poisson arrivals with an on/off MMPP of the same
	// mean rate (1.8×/0.2× phase rates, 30 s phases) — the arm on which
	// the analytic d(λ,x) = λ/(x−λ) is knowably wrong.
	Bursty bool
	// Every replays every Nth slot (default 1: every slot).
	Every int
	// Workers bounds the shard/site fan-out (default 1: sequential,
	// bit-identical to any other width).
	Workers int
	// Seed is the base seed; each slot (and site) derives its own stream.
	Seed uint64

	Site    string                   // metrics label for SlotReplayer (default "dc0")
	Metrics *telemetry.ReqsimMetrics // optional instruments
	Tracer  *span.Tracer             // optional span recording ("reqsim.replay")
}

const (
	// replayMaxShards caps the independent server replicas simulated per
	// slot: a slot with Active ≤ replayMaxShards replays every server;
	// beyond that, a statistically identical subset.
	replayMaxShards = 32
	// replayWarmupFrac is the fraction of each replay horizon discarded
	// before measuring.
	replayWarmupFrac = 0.1
)

func (o *ReplayOptions) withDefaults() ReplayOptions {
	out := *o
	if out.Requests <= 0 {
		out.Requests = 200_000
	}
	if !out.Service.Valid() {
		out.Service = ExponentialService(1)
	}
	if out.Every <= 0 {
		out.Every = 1
	}
	if out.Workers < 1 {
		out.Workers = 1
	}
	if out.Site == "" {
		out.Site = "dc0"
	}
	return out
}

// arrivals builds the slot's arrival process at mean rate lambda.
func (o *ReplayOptions) arrivals(lambda float64) (poissonRPS float64, proc ArrivalProcess) {
	if o.Bursty {
		return 0, OnOffArrivals(1.8*lambda, 0.2*lambda, 30, 30)
	}
	return lambda, ArrivalProcess{}
}

// ReplayReport aggregates a run's replays: how many requests were
// simulated and how far the measured queue diverged from the analytic
// model the controllers optimize against.
type ReplayReport struct {
	Slots    int   // slots replayed
	Requests int64 // total simulated requests
	Events   int64 // total simulation events
	Dropped  int64

	// MeanAbsRelErr and MaxAbsRelErr summarize |empirical − analytic| /
	// analytic over the per-replay mean number in system. Poisson arms
	// validate Eq. (4); heavy-tailed arms show its mean surviving with
	// wider tails; bursty arms quantify exactly how wrong it is.
	MeanAbsRelErr float64
	MaxAbsRelErr  float64

	errSlots int // replays that had an analytic prediction to compare against
}

func (r *ReplayReport) fold(res Result, analytic float64) float64 {
	r.Slots++
	r.Requests += int64(res.Arrived)
	r.Events += res.Events
	r.Dropped += int64(res.Dropped)
	relErr := -1.0
	if analytic > 0 {
		relErr = math.Abs(res.MeanJobs-analytic) / analytic
		r.errSlots++
		r.MeanAbsRelErr += relErr // running sum; finish() divides by errSlots
		if relErr > r.MaxAbsRelErr {
			r.MaxAbsRelErr = relErr
		}
	}
	return relErr
}

func (r *ReplayReport) finish() ReplayReport {
	out := *r
	if out.errSlots > 0 {
		out.MeanAbsRelErr /= float64(out.errSlots)
	}
	return out
}

// String renders the report for run summaries.
func (r ReplayReport) String() string {
	return fmt.Sprintf("slots=%d requests=%d events=%d dropped=%d model_err(mean=%.4f max=%.4f)",
		r.Slots, r.Requests, r.Events, r.Dropped, r.MeanAbsRelErr, r.MaxAbsRelErr)
}

// SlotReplayer replays settled slots of the single-site slot pipeline at
// request granularity: each observed sim.SlotRecord becomes `Active`
// independent M/G/1/PS replicas at per-server load λ/Active and speed
// x = Rate(Speed) — the exact queueing model behind the slot's charged
// delay cost — simulated shard-parallel through a Pool. Per-slot exact
// percentiles, queue lengths and the empirical-vs-analytic error flow
// into ReqsimMetrics and reqsim.replay spans.
//
// Attach with sim.RunObserved(sc, policy, replayer.Observer()). The
// replayer is deterministic: a function of (options, observed records)
// only, independent of Workers.
type SlotReplayer struct {
	opts   ReplayOptions
	server dcmodel.ServerType
	pool   *Pool
	rep    ReplayReport
}

// NewSlotReplayer builds a replayer for runs over the given server type
// (the scenario's sc.Server — it defines the speed→rate mapping).
func NewSlotReplayer(server dcmodel.ServerType, opts ReplayOptions) *SlotReplayer {
	o := opts.withDefaults()
	return &SlotReplayer{opts: o, server: server, pool: NewPool(o.Workers)}
}

// Observer adapts the replayer to the engine's per-slot hook.
func (r *SlotReplayer) Observer() sim.Observer { return r.observe }

// Report returns the aggregated replay statistics so far.
func (r *SlotReplayer) Report() ReplayReport { return r.rep.finish() }

func (r *SlotReplayer) observe(rec sim.SlotRecord) {
	o := &r.opts
	if rec.Slot%o.Every != 0 {
		return
	}
	if rec.LambdaRPS <= 0 || rec.Active <= 0 || rec.Speed <= 0 {
		return
	}
	lambdaPer := rec.LambdaRPS / float64(rec.Active)
	x := r.server.Rate(rec.Speed)
	if lambdaPer >= x {
		return // overloaded config: sim would have rejected it; nothing to validate
	}
	shards := rec.Active
	if shards > replayMaxShards {
		shards = replayMaxShards
	}
	// Size the horizon so expected arrivals across shards ≈ Requests.
	horizon := float64(o.Requests) / (lambdaPer * float64(shards))
	cfg := Config{
		ServiceRPS: x,
		Service:    o.Service,
		Horizon:    horizon,
		Warmup:     horizon * replayWarmupFrac,
		Seed:       o.Seed + uint64(rec.Slot+1)*slotSeedStride,
	}
	cfg.ArrivalRPS, cfg.Arrivals = o.arrivals(lambdaPer)
	var sp *span.Span
	if o.Tracer != nil {
		sp = o.Tracer.Start("reqsim.replay",
			span.Int("slot", rec.Slot),
			span.Float("lambda_per_server", lambdaPer),
			span.Float("service_rps", x),
			span.Int("shards", shards))
	}
	res, err := r.pool.RunSharded(cfg, shards)
	if err != nil {
		// Validation rejected a degenerate configuration; record and move on.
		if sp != nil {
			sp.Set(span.Str("error", err.Error()))
			sp.End()
		}
		return
	}
	analytic := AnalyticMeanJobs(lambdaPer, x)
	relErr := r.rep.fold(res, analytic)
	o.Metrics.ObserveReplay(o.Site, res.Arrived, res.Dropped, res.Events,
		res.P50Sec, res.P95Sec, res.P99Sec, res.MeanJobs, relErr)
	if sp != nil {
		sp.Set(
			span.Int("requests", res.Arrived),
			span.Int64("events", res.Events),
			span.Float("p50_sec", res.P50Sec),
			span.Float("p95_sec", res.P95Sec),
			span.Float("p99_sec", res.P99Sec),
			span.Float("mean_jobs", res.MeanJobs),
			span.Float("analytic_jobs", analytic),
			span.Float("model_err", relErr))
		sp.End()
	}
}

// FleetReplayer replays settled geo-fleet slots at request granularity:
// each loaded site's (load, delay-cost) outcome is mapped to its
// equivalent PS server — the paper's d = λ/(x−λ) inverted to
// x_eq = λ + λ/d, so the analytic prediction for the replayed queue *is*
// the site's charged delay cost — then every site is simulated in
// parallel (index-addressed, per-worker engines, deterministic for any
// Workers). Per-site percentiles, queue lengths and model error land in
// the same site-labeled ReqsimMetrics vectors the slot pipeline uses.
//
// Attach with fleet.SetSettleObserver(replayer.Observer()).
type FleetReplayer struct {
	opts    ReplayOptions
	names   []string
	engines []*Engine
	tapes   []SampleTape
	results []Result
	ran     []bool
	rep     ReplayReport
}

// NewFleetReplayer builds a replayer for a fleet whose site names (in
// site index order) label the per-site metric series.
func NewFleetReplayer(siteNames []string, opts ReplayOptions) *FleetReplayer {
	o := opts.withDefaults()
	r := &FleetReplayer{
		opts:    o,
		names:   append([]string(nil), siteNames...),
		tapes:   make([]SampleTape, len(siteNames)),
		results: make([]Result, len(siteNames)),
		ran:     make([]bool, len(siteNames)),
	}
	workers := o.Workers
	if workers > len(siteNames) && len(siteNames) > 0 {
		workers = len(siteNames)
	}
	for i := 0; i < workers; i++ {
		r.engines = append(r.engines, NewEngine())
	}
	return r
}

// Observer adapts the replayer to the fleet's settle hook.
func (r *FleetReplayer) Observer() geo.SettleObserver { return r.observe }

// Report returns the aggregated replay statistics so far.
func (r *FleetReplayer) Report() ReplayReport { return r.rep.finish() }

func (r *FleetReplayer) observe(slot int, out geo.StepOutcome) {
	o := &r.opts
	if slot%o.Every != 0 {
		return
	}
	n := len(out.Sites)
	if n > len(r.names) {
		n = len(r.names)
	}
	// One shared horizon sized off the fleet's total load: every site then
	// contributes requests proportional to its allocated share.
	var totalLoad float64
	for i := 0; i < n; i++ {
		if site := &out.Sites[i]; site.LoadRPS > 0 && site.DelayCost > 0 {
			totalLoad += site.LoadRPS
		}
	}
	if totalLoad <= 0 {
		return
	}
	horizon := float64(o.Requests) / totalLoad
	var sp *span.Span
	if o.Tracer != nil {
		sp = o.Tracer.Start("reqsim.fleet_replay",
			span.Int("slot", slot),
			span.Int("sites", n),
			span.Float("total_load_rps", totalLoad))
	}
	workpool.FanID(len(r.engines), n, func(worker, i int) {
		r.ran[i] = false
		site := &out.Sites[i]
		if site.LoadRPS <= 0 || site.DelayCost <= 0 {
			return
		}
		lambda := site.LoadRPS
		// Equivalent PS server: invert d = λ/(x−λ) so the analytic
		// prediction of the replayed queue equals the charged delay cost.
		xEq := lambda + lambda/site.DelayCost
		cfg := Config{
			ServiceRPS: xEq,
			Service:    o.Service,
			Horizon:    horizon,
			Warmup:     horizon * replayWarmupFrac,
			Seed:       o.Seed + uint64(slot+1)*slotSeedStride + uint64(i+1)*siteSeedStride,
		}
		cfg.ArrivalRPS, cfg.Arrivals = o.arrivals(lambda)
		res, err := r.engines[worker].Run(cfg, &r.tapes[i])
		if err != nil {
			return
		}
		r.results[i] = res
		r.ran[i] = true
	})
	// Fold in site index order — deterministic for any worker count.
	var requests, events int64
	for i := 0; i < n; i++ {
		if !r.ran[i] {
			continue
		}
		res := r.results[i]
		relErr := r.rep.fold(res, out.Sites[i].DelayCost)
		o.Metrics.ObserveReplay(r.names[i], res.Arrived, res.Dropped, res.Events,
			res.P50Sec, res.P95Sec, res.P99Sec, res.MeanJobs, relErr)
		requests += int64(res.Arrived)
		events += res.Events
	}
	if sp != nil {
		sp.Set(span.Int64("requests", requests), span.Int64("events", events))
		sp.End()
	}
}
