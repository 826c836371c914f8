package telemetry

import (
	"repro/internal/sim"
)

// Naming convention: instruments registered by New*Metrics live under a
// caller-chosen prefix ("run", "gsd", "pool", …) so several runs or
// solvers can share one registry without colliding, and the flattened
// names read naturally in expvar / the JSON summary
// ("run.total_usd", "gsd.iterations", "pool.jobs_done").

// RunMetrics instruments one simulation run (or any stream of settled
// slots): per-slot cost/grid/deficit series as running sums plus
// distributions, and the policy's carbon-deficit queue as a gauge.
type RunMetrics struct {
	Slots      *Counter // settled slots
	TotalUSD   *Counter // running total cost
	ElecUSD    *Counter // running electricity cost
	DelayUSD   *Counter // running delay cost
	SwitchUSD  *Counter // running switching cost
	GridKWh    *Counter // running grid draw
	EnergyKWh  *Counter // running facility energy
	DeficitKWh *Counter // running carbon deficit (signed)

	Queue      *Gauge // carbon-deficit queue length q(t), exported by policies
	LastSlot   *Gauge // most recently settled slot index
	LastActive *Gauge // most recent active-server count
	LastSpeed  *Gauge // most recent speed level

	SlotCostUSD *Histogram // distribution of per-slot total cost
	SlotGridKWh *Histogram // distribution of per-slot grid draw
}

// NewRunMetrics registers a run's instruments under prefix.
func NewRunMetrics(r *Registry, prefix string) *RunMetrics {
	p := prefix + "."
	return &RunMetrics{
		Slots:       r.Counter(p + "slots"),
		TotalUSD:    r.Counter(p + "total_usd"),
		ElecUSD:     r.Counter(p + "electricity_usd"),
		DelayUSD:    r.Counter(p + "delay_usd"),
		SwitchUSD:   r.Counter(p + "switch_usd"),
		GridKWh:     r.Counter(p + "grid_kwh"),
		EnergyKWh:   r.Counter(p + "energy_kwh"),
		DeficitKWh:  r.Counter(p + "deficit_kwh"),
		Queue:       r.Gauge(p + "queue_kwh"),
		LastSlot:    r.Gauge(p + "last_slot"),
		LastActive:  r.Gauge(p + "last_active"),
		LastSpeed:   r.Gauge(p + "last_speed"),
		SlotCostUSD: r.Histogram(p+"slot_cost_usd", ExpBuckets(1, 2, 20)),
		SlotGridKWh: r.Histogram(p+"slot_grid_kwh", ExpBuckets(1, 2, 24)),
	}
}

// Observe folds one settled slot into the instruments.
func (m *RunMetrics) Observe(rec sim.SlotRecord) {
	m.Slots.Inc()
	m.TotalUSD.Add(rec.TotalUSD)
	m.ElecUSD.Add(rec.ElectricityUSD)
	m.DelayUSD.Add(rec.DelayUSD)
	m.SwitchUSD.Add(rec.SwitchUSD)
	m.GridKWh.Add(rec.GridKWh)
	m.EnergyKWh.Add(rec.EnergyKWh)
	m.DeficitKWh.Add(rec.DeficitKWh)
	m.LastSlot.Set(float64(rec.Slot))
	m.LastActive.Set(float64(rec.Active))
	m.LastSpeed.Set(float64(rec.Speed))
	m.SlotCostUSD.Observe(rec.TotalUSD)
	m.SlotGridKWh.Observe(rec.GridKWh)
}

// Observer adapts the instruments to the engine's per-slot hook:
//
//	e, _ := sim.NewEngine(sc, policy, metrics.Observer())
func (m *RunMetrics) Observer() sim.Observer {
	return m.Observe
}

// SolveMetrics instruments a P3 solver (GSD): solve counts, iteration
// and acceptance totals, early patience exits, warm-start cold
// fallbacks, distributed dual-decomposition rounds, and the per-solve
// wall-time distribution.
type SolveMetrics struct {
	Solves        *Counter
	Iterations    *Counter
	Accepted      *Counter
	PatienceExits *Counter // solves stopped early by the patience criterion
	ColdFallbacks *Counter // warm starts dropped (stale length or infeasible)
	DualRounds    *Counter // dual-decomposition rounds (distributed engine only)

	SolveSeconds *Histogram // wall time per solve
	ItersPerRun  *Histogram // iterations per solve (convergence effort)
}

// NewSolveMetrics registers a solver's instruments under prefix.
func NewSolveMetrics(r *Registry, prefix string) *SolveMetrics {
	p := prefix + "."
	return &SolveMetrics{
		Solves:        r.Counter(p + "solves"),
		Iterations:    r.Counter(p + "iterations"),
		Accepted:      r.Counter(p + "accepted_moves"),
		PatienceExits: r.Counter(p + "patience_exits"),
		ColdFallbacks: r.Counter(p + "cold_fallbacks"),
		DualRounds:    r.Counter(p + "dual_rounds"),
		SolveSeconds:  r.Histogram(p+"solve_seconds", ExpBuckets(1e-5, 4, 12)),
		ItersPerRun:   r.Histogram(p+"iterations_per_solve", ExpBuckets(8, 2, 12)),
	}
}

// FinishSolve folds one completed solve into the instruments.
func (m *SolveMetrics) FinishSolve(iters, accepted int, patienceExit bool, seconds float64) {
	m.Solves.Inc()
	m.Iterations.Add(float64(iters))
	m.Accepted.Add(float64(accepted))
	if patienceExit {
		m.PatienceExits.Inc()
	}
	m.SolveSeconds.Observe(seconds)
	m.ItersPerRun.Observe(float64(iters))
}

// GeoSiteMetrics is one federation site's slice of GeoMetrics. The
// instruments are children of site-labeled vectors, so the exposition
// renders them as geo_site_*{site="…"} series.
type GeoSiteMetrics struct {
	Solves     *Counter // slots in which the site carried load (one P3 solve each)
	LoadRPS    *Counter // running allocated load
	Chunks     *Counter // greedy allocation chunks won
	CostUSD    *Counter // running site cost (w·grid + β·delay)
	GridKWh    *Counter // running grid draw
	DeficitKWh *Gauge   // current carbon-deficit queue length
}

// GeoMetrics instruments a geo federation run: federation-level step and
// cost totals plus a site-labeled breakdown. It deliberately takes plain
// values, not geo types, so package geo can import telemetry without a
// cycle. All methods are nil-safe.
type GeoMetrics struct {
	Steps    *Counter
	TotalUSD *Counter
	GridKWh  *Counter

	P3Solves    *Counter // fresh P3 solves spent on the split hot path
	MemoHits    *Counter // candidate reads served by the per-slot memo table
	SolveErrors *Counter // real (non-infeasibility) solver failures surfaced by Step

	siteSolves  *LabeledCounter
	siteLoad    *LabeledCounter
	siteChunks  *LabeledCounter
	siteCost    *LabeledCounter
	siteGrid    *LabeledCounter
	siteDeficit *LabeledGauge
	sites       map[string]*GeoSiteMetrics // cached per-site handles
}

// NewGeoMetrics registers federation instruments under prefix
// (conventionally "geo"); per-site series live in site-labeled vectors
// ("<prefix>.site.solves"{site="…"}, …), their tuples interned the first
// time a site is observed.
func NewGeoMetrics(r *Registry, prefix string) *GeoMetrics {
	p := prefix + "."
	return &GeoMetrics{
		Steps:       r.Counter(p + "steps"),
		TotalUSD:    r.Counter(p + "total_usd"),
		GridKWh:     r.Counter(p + "grid_kwh"),
		P3Solves:    r.Counter(p + "p3_solves"),
		MemoHits:    r.Counter(p + "memo_hits"),
		SolveErrors: r.Counter(p + "solve_errors"),
		siteSolves:  r.LabeledCounter(p+"site.solves", "slots in which the site carried load", "site"),
		siteLoad:    r.LabeledCounter(p+"site.load_rps", "running load allocated to the site", "site"),
		siteChunks:  r.LabeledCounter(p+"site.chunks", "greedy allocation chunks won by the site", "site"),
		siteCost:    r.LabeledCounter(p+"site.cost_usd", "running site cost (w*grid + beta*delay)", "site"),
		siteGrid:    r.LabeledCounter(p+"site.grid_kwh", "running site grid draw", "site"),
		siteDeficit: r.LabeledGauge(p+"site.deficit_kwh", "site carbon-deficit queue length", "site"),
		sites:       make(map[string]*GeoSiteMetrics),
	}
}

// Site returns (interning on first use) the named site's instruments.
func (m *GeoMetrics) Site(name string) *GeoSiteMetrics {
	if m == nil {
		return nil
	}
	if s, ok := m.sites[name]; ok {
		return s
	}
	s := &GeoSiteMetrics{
		Solves:     m.siteSolves.With(name),
		LoadRPS:    m.siteLoad.With(name),
		Chunks:     m.siteChunks.With(name),
		CostUSD:    m.siteCost.With(name),
		GridKWh:    m.siteGrid.With(name),
		DeficitKWh: m.siteDeficit.With(name),
	}
	m.sites[name] = s
	return s
}

// ObserveStep folds one federation slot's totals into the instruments.
func (m *GeoMetrics) ObserveStep(totalUSD, totalGridKWh float64) {
	if m == nil {
		return
	}
	m.Steps.Inc()
	m.TotalUSD.Add(totalUSD)
	m.GridKWh.Add(totalGridKWh)
}

// ObserveSite folds one site's share of a slot into the instruments.
func (m *GeoMetrics) ObserveSite(name string, loadRPS float64, chunks int, costUSD, gridKWh float64) {
	if m == nil {
		return
	}
	s := m.Site(name)
	if loadRPS > 0 {
		s.Solves.Inc()
	}
	s.LoadRPS.Add(loadRPS)
	s.Chunks.Add(float64(chunks))
	s.CostUSD.Add(costUSD)
	s.GridKWh.Add(gridKWh)
}

// ObserveSplit folds one slot's split-path solve accounting into the
// instruments: fresh P3 solves spent and the candidate evaluations the
// per-slot memo table absorbed (each hit is a solve the naive greedy loop
// would have paid for).
func (m *GeoMetrics) ObserveSplit(p3Solves, memoHits int) {
	if m == nil {
		return
	}
	m.P3Solves.Add(float64(p3Solves))
	m.MemoHits.Add(float64(memoHits))
}

// IncSolveError records a real solver failure — anything beyond
// capacity-type infeasibility — surfaced by a federation step.
func (m *GeoMetrics) IncSolveError() {
	if m == nil {
		return
	}
	m.SolveErrors.Inc()
}

// SetDeficit records a site's current carbon-deficit queue length.
func (m *GeoMetrics) SetDeficit(name string, kwh float64) {
	if m == nil {
		return
	}
	m.Site(name).DeficitKWh.Set(kwh)
}

// FleetSiteMetrics is one fleet site's slice of FleetMetrics: the slot
// outcome series. Solver-side stats (iterations, dual rounds, solve wall
// time) live in the per-shard SolveMetrics from SiteSolveMetrics.
type FleetSiteMetrics struct {
	LoadRPS     *Counter // running load allocated to the site
	CostUSD     *Counter // running site cost (w·grid + β·delay)
	GridKWh     *Counter // running grid draw
	SolveErrors *Counter // solver failures surfaced by the site's shard
	DeficitKWh  *Gauge   // current carbon-deficit queue length
}

// FleetMetrics instruments a geo.Fleet run: fleet-level step totals and
// wall time plus a site-labeled breakdown, including per-shard GSD solve
// stats assembled from the same labeled vectors (SiteSolveMetrics). Like
// GeoMetrics it takes plain values so geo imports telemetry, not the
// other way round. All methods are nil-safe.
type FleetMetrics struct {
	Steps       *Counter   // stepped fleet slots
	TotalUSD    *Counter   // running fleet cost
	GridKWh     *Counter   // running fleet grid draw
	StepSeconds *Histogram // wall time per fleet Step (fan-out included)

	siteLoad    *LabeledCounter
	siteCost    *LabeledCounter
	siteGrid    *LabeledCounter
	siteErrors  *LabeledCounter
	siteDeficit *LabeledGauge

	// Per-shard GSD solve stats, one SolveMetrics view per site.
	shardSolves   *LabeledCounter
	shardIters    *LabeledCounter
	shardAccepted *LabeledCounter
	shardPatience *LabeledCounter
	shardCold     *LabeledCounter
	shardDual     *LabeledCounter
	shardSeconds  *LabeledHistogram
	shardItersRun *LabeledHistogram

	sites  map[string]*FleetSiteMetrics
	shards map[string]*SolveMetrics
}

// NewFleetMetrics registers fleet instruments under prefix
// (conventionally "fleet"). Site series are labeled vectors
// ("<prefix>.site.load_rps"{site="…"}, …); shard solver series mirror
// SolveMetrics names under "<prefix>.shard.*"{site="…"}.
func NewFleetMetrics(r *Registry, prefix string) *FleetMetrics {
	p := prefix + "."
	return &FleetMetrics{
		Steps:       r.Counter(p + "steps"),
		TotalUSD:    r.Counter(p + "total_usd"),
		GridKWh:     r.Counter(p + "grid_kwh"),
		StepSeconds: r.Histogram(p+"step_seconds", ExpBuckets(1e-5, 4, 14)),

		siteLoad:    r.LabeledCounter(p+"site.load_rps", "running load allocated to the site", "site"),
		siteCost:    r.LabeledCounter(p+"site.cost_usd", "running site cost (w*grid + beta*delay)", "site"),
		siteGrid:    r.LabeledCounter(p+"site.grid_kwh", "running site grid draw", "site"),
		siteErrors:  r.LabeledCounter(p+"site.solve_errors", "solver failures surfaced by the site's shard", "site"),
		siteDeficit: r.LabeledGauge(p+"site.deficit_kwh", "site carbon-deficit queue length", "site"),

		shardSolves:   r.LabeledCounter(p+"shard.solves", "GSD solves run by the site's shard", "site"),
		shardIters:    r.LabeledCounter(p+"shard.iterations", "GSD iterations spent by the site's shard", "site"),
		shardAccepted: r.LabeledCounter(p+"shard.accepted_moves", "GSD moves accepted by the site's shard", "site"),
		shardPatience: r.LabeledCounter(p+"shard.patience_exits", "solves stopped early by the patience criterion", "site"),
		shardCold:     r.LabeledCounter(p+"shard.cold_fallbacks", "warm starts dropped by the site's shard", "site"),
		shardDual:     r.LabeledCounter(p+"shard.dual_rounds", "dual-decomposition rounds run by the site's shard", "site"),
		shardSeconds:  r.LabeledHistogram(p+"shard.solve_seconds", "wall time per shard solve", ExpBuckets(1e-5, 4, 12), "site"),
		shardItersRun: r.LabeledHistogram(p+"shard.iterations_per_solve", "iterations per shard solve", ExpBuckets(8, 2, 12), "site"),

		sites:  make(map[string]*FleetSiteMetrics),
		shards: make(map[string]*SolveMetrics),
	}
}

// Site returns (interning on first use) the named site's outcome
// instruments.
func (m *FleetMetrics) Site(name string) *FleetSiteMetrics {
	if m == nil {
		return nil
	}
	if s, ok := m.sites[name]; ok {
		return s
	}
	s := &FleetSiteMetrics{
		LoadRPS:     m.siteLoad.With(name),
		CostUSD:     m.siteCost.With(name),
		GridKWh:     m.siteGrid.With(name),
		SolveErrors: m.siteErrors.With(name),
		DeficitKWh:  m.siteDeficit.With(name),
	}
	m.sites[name] = s
	return s
}

// SiteSolveMetrics returns (interning on first use) a SolveMetrics view
// over the named site's shard series: every field is the site's child of
// the corresponding labeled vector, so handing it to the site's
// gsd.Solver (Opts.Metrics) records per-shard stats at exactly the flat
// SolveMetrics cost.
func (m *FleetMetrics) SiteSolveMetrics(name string) *SolveMetrics {
	if m == nil {
		return nil
	}
	if s, ok := m.shards[name]; ok {
		return s
	}
	s := &SolveMetrics{
		Solves:        m.shardSolves.With(name),
		Iterations:    m.shardIters.With(name),
		Accepted:      m.shardAccepted.With(name),
		PatienceExits: m.shardPatience.With(name),
		ColdFallbacks: m.shardCold.With(name),
		DualRounds:    m.shardDual.With(name),
		SolveSeconds:  m.shardSeconds.With(name),
		ItersPerRun:   m.shardItersRun.With(name),
	}
	m.shards[name] = s
	return s
}

// ObserveStep folds one fleet slot's totals and wall time into the
// instruments.
func (m *FleetMetrics) ObserveStep(totalUSD, totalGridKWh, seconds float64) {
	if m == nil {
		return
	}
	m.Steps.Inc()
	m.TotalUSD.Add(totalUSD)
	m.GridKWh.Add(totalGridKWh)
	m.StepSeconds.Observe(seconds)
}

// BatchMetrics instruments the batch-job scheduler: submission and
// completion counters, deferred (future-slot) submissions, served work,
// and the live queue depth / backlog gauges. Value-based for the same
// no-cycle reason as GeoMetrics; all methods are nil-safe.
type BatchMetrics struct {
	Submitted   *Counter // jobs accepted by Submit
	Deferred    *Counter // of those, jobs queued for a future arrival slot
	Completed   *Counter // jobs finished before their deadline
	Missed      *Counter // jobs whose deadline expired unfinished
	ServedHours *Counter // server-hours of batch work executed
	EnergyKWh   *Counter // computing energy charged to batch work

	QueueDepth   *Gauge // jobs currently eligible (arrived, not finished)
	BacklogHours *Gauge // remaining work across queue and future arrivals
}

// NewBatchMetrics registers scheduler instruments under prefix
// (conventionally "batch").
func NewBatchMetrics(r *Registry, prefix string) *BatchMetrics {
	p := prefix + "."
	return &BatchMetrics{
		Submitted:    r.Counter(p + "submitted"),
		Deferred:     r.Counter(p + "deferred"),
		Completed:    r.Counter(p + "completed"),
		Missed:       r.Counter(p + "missed"),
		ServedHours:  r.Counter(p + "served_server_hours"),
		EnergyKWh:    r.Counter(p + "energy_kwh"),
		QueueDepth:   r.Gauge(p + "queue_depth"),
		BacklogHours: r.Gauge(p + "backlog_server_hours"),
	}
}

// ObserveSubmit records one accepted submission.
func (m *BatchMetrics) ObserveSubmit(deferred bool) {
	if m == nil {
		return
	}
	m.Submitted.Inc()
	if deferred {
		m.Deferred.Inc()
	}
}

// ObserveStep folds one scheduled slot into the instruments.
func (m *BatchMetrics) ObserveStep(usedServerHours, energyKWh float64, completed, missed, queueDepth int, backlogHours float64) {
	if m == nil {
		return
	}
	m.ServedHours.Add(usedServerHours)
	m.EnergyKWh.Add(energyKWh)
	m.Completed.Add(float64(completed))
	m.Missed.Add(float64(missed))
	m.QueueDepth.Set(float64(queueDepth))
	m.BacklogHours.Set(backlogHours)
}

// PoolMetrics instruments the experiment worker pool: job progress,
// in-flight fan-out and the per-job wall-time distribution.
type PoolMetrics struct {
	JobsStarted *Counter
	JobsDone    *Counter
	JobErrors   *Counter
	InFlight    *Gauge
	Workers     *Gauge
	JobSeconds  *Histogram
}

// StartJob marks one job as picked up. It is nil-safe so pools can thread
// an optional *PoolMetrics without guarding every call site.
func (m *PoolMetrics) StartJob() {
	if m == nil {
		return
	}
	m.JobsStarted.Inc()
	m.InFlight.Add(1)
}

// EndJob marks one job as finished (successfully or not) after the given
// wall time. Nil-safe.
func (m *PoolMetrics) EndJob(failed bool, seconds float64) {
	if m == nil {
		return
	}
	m.InFlight.Add(-1)
	if failed {
		m.JobErrors.Inc()
	} else {
		m.JobsDone.Inc()
	}
	m.JobSeconds.Observe(seconds)
}

// SetWorkers records the pool's effective fan-out. Nil-safe.
func (m *PoolMetrics) SetWorkers(n int) {
	if m == nil {
		return
	}
	m.Workers.Set(float64(n))
}

// NewPoolMetrics registers pool instruments under prefix.
func NewPoolMetrics(r *Registry, prefix string) *PoolMetrics {
	p := prefix + "."
	return &PoolMetrics{
		JobsStarted: r.Counter(p + "jobs_started"),
		JobsDone:    r.Counter(p + "jobs_done"),
		JobErrors:   r.Counter(p + "job_errors"),
		InFlight:    r.Gauge(p + "in_flight"),
		Workers:     r.Gauge(p + "workers"),
		JobSeconds:  r.Histogram(p+"job_seconds", ExpBuckets(1e-4, 4, 12)),
	}
}
