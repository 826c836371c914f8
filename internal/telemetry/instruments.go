package telemetry

import (
	"repro/internal/sim"
)

// Naming convention: instruments registered by New*Metrics live under a
// caller-chosen prefix ("run", "gsd", "pool", …) so several runs or
// solvers can share one registry without colliding, and the flattened
// names read naturally in Snapshot and the JSON summary
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
	return newSolveMetrics(r, prefix+".", nil)
}

// newSolveMetrics registers the solver instruments under p: flat families
// when labels is empty, else the values' children of labeled vectors. The
// help texts describe the per-shard view, so only labeled families carry
// them.
func newSolveMetrics(r *Registry, p string, labels []string, values ...string) *SolveMetrics {
	help := func(text string) string {
		if len(labels) == 0 {
			return ""
		}
		return text
	}
	counter := func(name, text string) *Counter {
		return r.LabeledCounter(p+name, help(text), labels...).With(values...)
	}
	histogram := func(name, text string, bounds []float64) *Histogram {
		return r.LabeledHistogram(p+name, help(text), bounds, labels...).With(values...)
	}
	return &SolveMetrics{
		Solves:        counter("solves", "GSD solves run by the site's shard"),
		Iterations:    counter("iterations", "GSD iterations spent by the site's shard"),
		Accepted:      counter("accepted_moves", "GSD moves accepted by the site's shard"),
		PatienceExits: counter("patience_exits", "solves stopped early by the patience criterion"),
		ColdFallbacks: counter("cold_fallbacks", "warm starts dropped by the site's shard"),
		DualRounds:    counter("dual_rounds", "dual-decomposition rounds run by the site's shard"),
		SolveSeconds:  histogram("solve_seconds", "wall time per shard solve", ExpBuckets(1e-5, 4, 12)),
		ItersPerRun:   histogram("iterations_per_solve", "iterations per shard solve", ExpBuckets(8, 2, 12)),
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

// FleetSiteMetrics is one site's slice of FleetMetrics: the slot outcome
// series. Solver-side stats live in the per-shard SolveMetrics from
// SiteSolveMetrics.
type FleetSiteMetrics struct {
	LoadRPS    *Counter // running load allocated to the site
	CostUSD    *Counter // running site cost (w·grid + β·delay)
	GridKWh    *Counter // running grid draw
	DeficitKWh *Gauge   // current carbon-deficit queue length
}

// FleetMetrics instruments a run of either multi-site engine — geo.System
// (conventionally under "geo") or geo.Fleet (under "fleet"): step totals
// and wall time, solver failures, and a site-labeled breakdown rendered
// as <prefix>_site_*{site="…"} series. The engine-specific families —
// the greedy split's solve accounting (Split) and the GSD shards' solve
// stats (SiteSolveMetrics) — register on first use, so each engine
// exports only the families it feeds. It takes plain values so geo
// imports telemetry, not the other way round.
type FleetMetrics struct {
	Steps       *Counter   // stepped slots
	TotalUSD    *Counter   // running federation cost
	GridKWh     *Counter   // running federation grid draw
	SolveErrors *Counter   // real (non-infeasibility) solver failures surfaced by a step
	StepSeconds *Histogram // wall time per Step (fan-out included)

	reg         *Registry
	prefix      string
	siteLoad    *LabeledCounter
	siteCost    *LabeledCounter
	siteGrid    *LabeledCounter
	siteDeficit *LabeledGauge
}

// NewFleetMetrics registers the shared instruments under prefix.
func NewFleetMetrics(r *Registry, prefix string) *FleetMetrics {
	p := prefix + "."
	return &FleetMetrics{
		Steps:       r.Counter(p + "steps"),
		TotalUSD:    r.Counter(p + "total_usd"),
		GridKWh:     r.Counter(p + "grid_kwh"),
		SolveErrors: r.Counter(p + "solve_errors"),
		StepSeconds: r.Histogram(p+"step_seconds", ExpBuckets(1e-5, 4, 14)),

		reg:         r,
		prefix:      prefix,
		siteLoad:    r.LabeledCounter(p+"site.load_rps", "running load allocated to the site", "site"),
		siteCost:    r.LabeledCounter(p+"site.cost_usd", "running site cost (w*grid + beta*delay)", "site"),
		siteGrid:    r.LabeledCounter(p+"site.grid_kwh", "running site grid draw", "site"),
		siteDeficit: r.LabeledGauge(p+"site.deficit_kwh", "site carbon-deficit queue length", "site"),
	}
}

// Site interns the named site's outcome instruments.
func (m *FleetMetrics) Site(name string) *FleetSiteMetrics {
	return &FleetSiteMetrics{
		LoadRPS:    m.siteLoad.With(name),
		CostUSD:    m.siteCost.With(name),
		GridKWh:    m.siteGrid.With(name),
		DeficitKWh: m.siteDeficit.With(name),
	}
}

// Split registers (on first use) and returns the greedy split's
// instruments: fresh P3 solves spent, candidate evaluations served by the
// per-slot memo table (each a solve the naive greedy loop would have paid
// for), and the chunks each site won.
func (m *FleetMetrics) Split() (p3Solves, memoHits *Counter, chunks *LabeledCounter) {
	p := m.prefix + "."
	return m.reg.Counter(p + "p3_solves"), m.reg.Counter(p + "memo_hits"),
		m.reg.LabeledCounter(p+"site.chunks", "greedy allocation chunks won by the site", "site")
}

// SiteSolveMetrics returns a SolveMetrics view over the named site's
// shard series, registered on first use under "<prefix>.shard.*": every
// field is the site's child of the corresponding labeled vector, so
// handing it to the site's gsd.Solver (Opts.Metrics) records per-shard
// stats at exactly the flat SolveMetrics cost.
func (m *FleetMetrics) SiteSolveMetrics(name string) *SolveMetrics {
	return newSolveMetrics(m.reg, m.prefix+".shard.", []string{"site"}, name)
}

// ObserveStep folds one stepped slot's totals and wall time into the
// instruments.
func (m *FleetMetrics) ObserveStep(totalUSD, totalGridKWh, seconds float64) {
	m.Steps.Inc()
	m.TotalUSD.Add(totalUSD)
	m.GridKWh.Add(totalGridKWh)
	m.StepSeconds.Observe(seconds)
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
