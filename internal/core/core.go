// Package core implements COCA (Algorithm 1), the paper's primary
// contribution: an online algorithm that minimizes data-center operational
// cost while satisfying long-term carbon neutrality, without long-term
// future information.
//
// Each slot t, COCA observes λ(t), r(t) and w(t), resets the virtual
// carbon-deficit queue at frame boundaries (so the cost-carbon parameter V
// can be retuned per frame), and solves P3 (Eq. 16):
//
//	min V·g(λ,x) + q(t)·[p(λ,x) − r(t)]^+
//
// — equivalently a dcmodel.SlotProblem with weights We = V·w(t) + q(t) and
// Wd = V·β. After the slot, the realized off-site generation f(t) drives
// the queue update of Eq. (17). As q(t) grows the electricity weight grows
// with it, realizing "if violate neutrality, then use less electricity".
//
// Two entry points are provided: Policy, which plugs into the sim engine's
// homogeneous-fleet year-long runs using the exact symmetric P3 solver, and
// Controller, the group-level form that works with any p3.Solver — in
// particular GSD, the paper's distributed solver — for heterogeneous
// clusters.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dcmodel"
	"repro/internal/lyapunov"
	"repro/internal/p3"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// ErrScheduleExhausted is returned by Controller.Step when the slot cursor
// has moved past the configured V schedule's horizon.
var ErrScheduleExhausted = errors.New("core: V schedule exhausted")

// Config parameterizes COCA for the homogeneous sim engine.
type Config struct {
	Server dcmodel.ServerType
	N      int
	Gamma  float64
	PUE    float64
	Beta   float64

	// Schedule fixes frames and per-frame V_r (Algorithm 1 lines 2–4).
	Schedule lyapunov.VSchedule
	// Alpha and RECPerSlotKWh parameterize the deficit-queue update Eq. (17).
	Alpha         float64
	RECPerSlotKWh float64

	// SwitchCostKWh internalizes the Fig. 5(d) switching cost into P3 (the
	// penalty per toggled server is V·w(t)·SwitchCostKWh).
	SwitchCostKWh float64

	// Tariff optionally makes the electricity cost nonlinear (§2.1): P3's
	// grid term becomes V·w(t)·Tariff.Cost(g) + q(t)·g (the deficit queue
	// still prices raw kWh, since carbon accounting is in energy).
	Tariff dcmodel.Tariff

	// MaxPowerKW and MaxDelayCost are the optional §3.1 per-slot
	// constraints, enforced inside P3. Zero disables.
	MaxPowerKW   float64
	MaxDelayCost float64
}

// Policy is COCA as a sim.Policy over a homogeneous fleet.
type Policy struct {
	cfg   Config
	queue *lyapunov.DeficitQueue

	// prevActive is the switching-cost anchor: the active count of the
	// last configuration the engine actually operated. Decide only
	// proposes (pendingActive); the anchor is committed when the engine
	// confirms the slot through Observe, so a rejected step (cap
	// violation, overload) followed by a retry cannot desync the policy
	// from the engine's own previous-active state.
	prevActive    int
	pendingActive int
	vOverride     float64

	// queueGauge, when set, exports q(t) to the telemetry layer.
	queueGauge *telemetry.Gauge

	// QueueTrace records q(t) per slot for analysis when enabled.
	QueueTrace []float64
	record     bool
}

// New builds a COCA policy. The schedule must cover the intended horizon;
// Run validates that via the scenario.
func New(cfg Config) (*Policy, error) {
	if err := cfg.Server.Validate(); err != nil {
		return nil, err
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("core: fleet size %d", cfg.N)
	}
	// Negated so that NaN, which fails every comparison, is rejected: a
	// NaN γ would otherwise switch the utilization cap off.
	if !(cfg.Gamma > 0 && cfg.Gamma < 1) {
		return nil, fmt.Errorf("core: gamma %v outside (0,1)", cfg.Gamma)
	}
	if !(cfg.PUE >= 1) || math.IsInf(cfg.PUE, 1) {
		return nil, fmt.Errorf("core: PUE %v not a finite value of at least 1", cfg.PUE)
	}
	if !(cfg.Beta >= 0) {
		return nil, fmt.Errorf("core: beta %v negative or NaN", cfg.Beta)
	}
	if err := cfg.Schedule.Validate(cfg.Schedule.Slots()); err != nil {
		return nil, err
	}
	if err := lyapunov.CheckQueueParams(cfg.Alpha, cfg.RECPerSlotKWh); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Policy{
		cfg:   cfg,
		queue: lyapunov.NewDeficitQueue(cfg.Alpha, cfg.RECPerSlotKWh),
	}, nil
}

// FromScenario derives a COCA config from a sim scenario plus a V schedule.
func FromScenario(sc *sim.Scenario, sched lyapunov.VSchedule) Config {
	return Config{
		Server: sc.Server, N: sc.N, Gamma: sc.Gamma, PUE: sc.PUE, Beta: sc.Beta,
		Schedule:      sched,
		Alpha:         sc.Portfolio.Alpha,
		RECPerSlotKWh: sc.Portfolio.RECPerSlotKWh(sc.Slots),
		SwitchCostKWh: sc.SwitchCostKWh,
		Tariff:        sc.Tariff,
		MaxPowerKW:    sc.MaxPowerKW,
		MaxDelayCost:  sc.MaxDelayCost,
	}
}

// RecordQueue enables per-slot queue-length tracing.
func (p *Policy) RecordQueue() { p.record = true }

// InstrumentQueue exports the carbon-deficit queue length q(t) through
// the given telemetry gauge, updated on every frame reset and feedback.
func (p *Policy) InstrumentQueue(g *telemetry.Gauge) { p.queueGauge = g }

// SetV overrides the schedule's cost-carbon parameter for subsequent slots
// without touching frame boundaries — used by ablation studies that vary V
// while keeping (or suppressing) queue resets. Zero restores the schedule.
func (p *Policy) SetV(v float64) { p.vOverride = v }

// Name implements sim.Policy.
func (p *Policy) Name() string { return "coca" }

// Queue exposes the current deficit-queue length q(t).
func (p *Policy) Queue() float64 { return p.queue.Len() }

// Decide implements sim.Policy: Algorithm 1 lines 2–5.
func (p *Policy) Decide(obs sim.Observation) (sim.Config, error) {
	if p.cfg.Schedule.FrameStart(obs.Slot) {
		p.queue.Reset()
		if p.queueGauge != nil {
			p.queueGauge.Set(p.queue.Len())
		}
	}
	v := p.cfg.Schedule.V(obs.Slot)
	if p.vOverride > 0 {
		v = p.vOverride
	}
	we, wd := dcmodel.P3Weights(v, p.queue.Len(), obs.PriceUSDPerKWh, p.cfg.Beta)
	hp := &p3.HomogeneousProblem{
		Type: p.cfg.Server, N: p.cfg.N,
		Gamma: p.cfg.Gamma, PUE: p.cfg.PUE,
		LambdaRPS: obs.LambdaRPS,
		We:        we, Wd: wd,
		OnsiteKW:     obs.OnsiteKW,
		SwitchWeight: v * obs.PriceUSDPerKWh * p.cfg.SwitchCostKWh,
		PrevActive:   p.prevActive,
		MaxPowerKW:   p.cfg.MaxPowerKW,
		MaxDelayCost: p.cfg.MaxDelayCost,
	}
	if p.cfg.Tariff != nil {
		q := p.queue.Len()
		w := obs.PriceUSDPerKWh
		tariff := p.cfg.Tariff
		hp.GridCostFn = func(g float64) float64 {
			return v*w*tariff.Cost(g) + q*g
		}
	}
	sol, err := hp.Solve()
	if err != nil {
		return sim.Config{}, err
	}
	// Speculate only: the anchor moves when the engine confirms the slot
	// (Observe). A rejected Step never reaches Observe, so a retried
	// Decide re-anchors against the configuration actually operated last.
	p.pendingActive = sol.Active
	return sim.Config{Speed: sol.Speed, Active: sol.Active}, nil
}

// Observe implements sim.Policy: the Eq. (17) queue update with the
// realized grid draw and off-site generation, and the commit point for
// the switching-cost anchor speculated in Decide.
func (p *Policy) Observe(fb sim.Feedback) {
	p.prevActive = p.pendingActive
	q := p.queue.Update(fb.GridKWh, fb.OffsiteKWh)
	if p.record {
		p.QueueTrace = append(p.QueueTrace, q)
	}
	if p.queueGauge != nil {
		p.queueGauge.Set(q)
	}
}

var _ sim.Policy = (*Policy)(nil)

// Controller is the group-level COCA loop for heterogeneous clusters: the
// caller supplies any P3 solver (typically gsd.Solver, the paper's
// distributed algorithm) and feeds environments slot by slot.
type Controller struct {
	Cluster  *dcmodel.Cluster
	Beta     float64
	Schedule lyapunov.VSchedule
	Solver   p3.Solver

	// SlotHours, Tariff and SwitchCostKWh are the Ledger extensions of
	// the sim path — slot duration, §2.1 nonlinear pricing and the
	// Fig. 5(d) toggling charge. The zero values reproduce the paper's
	// defaults; set them (before the first Step) to make heterogeneous
	// accounting match a sim.Scenario carrying the same knobs.
	SlotHours     float64
	Tariff        dcmodel.Tariff
	SwitchCostKWh float64

	queue *lyapunov.DeficitQueue
	slot  int

	// prevActive anchors the switching charge. Like sim's COCA policy it
	// is committed only when the slot settles (Settle), so a failed or
	// abandoned Step can be retried without desyncing the anchor.
	prevActive int

	// queueGauge, when set, exports q(t) to the telemetry layer.
	queueGauge *telemetry.Gauge
}

// NewController builds a group-level COCA controller.
func NewController(cluster *dcmodel.Cluster, beta float64, sched lyapunov.VSchedule, alpha, recPerSlotKWh float64, solver p3.Solver) (*Controller, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if err := sched.Validate(sched.Slots()); err != nil {
		return nil, err
	}
	if solver == nil {
		return nil, fmt.Errorf("core: nil P3 solver")
	}
	if err := lyapunov.CheckQueueParams(alpha, recPerSlotKWh); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Controller{
		Cluster: cluster, Beta: beta, Schedule: sched, Solver: solver,
		queue: lyapunov.NewDeficitQueue(alpha, recPerSlotKWh),
	}, nil
}

// SlotEnv is one slot's environment for the controller.
type SlotEnv struct {
	LambdaRPS      float64
	OnsiteKW       float64
	PriceUSDPerKWh float64
}

// SlotOutcome is the controller's record of one decided-and-operated slot.
type SlotOutcome struct {
	Solution dcmodel.Solution
	Cost     dcmodel.SlotCharge
	Queue    float64 // q(t) used in the slot's P3 weights
	// Active is the solution's active-server count; Settle commits it as
	// the next slot's switching-cost anchor.
	Active int
}

// Step runs Algorithm 1 for one slot: frame reset, P3 via the plugged
// solver, cost accounting. Call Settle afterwards with the realized f(t);
// a Step that is never settled (rejected by the caller, retried after a
// failure) leaves the controller's state untouched.
func (c *Controller) Step(env SlotEnv) (SlotOutcome, error) {
	if c.slot >= c.Schedule.Slots() {
		// A long-running controller must outlive its schedule gracefully:
		// indexing V past the horizon would panic inside VSchedule.
		return SlotOutcome{}, fmt.Errorf("core: slot %d beyond the schedule horizon %d: %w",
			c.slot, c.Schedule.Slots(), ErrScheduleExhausted)
	}
	if c.Schedule.FrameStart(c.slot) {
		c.queue.Reset()
		if c.queueGauge != nil {
			c.queueGauge.Set(c.queue.Len())
		}
	}
	v := c.Schedule.V(c.slot)
	q := c.queue.Len()
	we, wd := dcmodel.P3Weights(v, q, env.PriceUSDPerKWh, c.Beta)
	prob := &dcmodel.SlotProblem{
		Cluster:   c.Cluster,
		LambdaRPS: env.LambdaRPS,
		We:        we, Wd: wd,
		OnsiteKW: env.OnsiteKW,
	}
	sol, err := c.Solver.Solve(prob)
	if err != nil {
		return SlotOutcome{}, fmt.Errorf("core: slot %d: %w", c.slot, err)
	}
	// Charge prices through the shared dcmodel.Ledger kernel with the full
	// extension set — slot duration, nonlinear tariff and the toggling
	// charge against the last settled slot — so the controller's
	// accounting matches internal/sim exactly.
	active := c.Cluster.ActiveServers(sol.Speeds)
	cost := c.Cluster.Charge(dcmodel.Ledger{
		PriceUSDPerKWh: env.PriceUSDPerKWh,
		OnsiteKW:       env.OnsiteKW,
		Beta:           c.Beta,
		SlotHours:      c.SlotHours,
		Tariff:         c.Tariff,
		SwitchCostKWh:  c.SwitchCostKWh,
	}, sol.Speeds, sol.Load, active-c.prevActive)
	return SlotOutcome{Solution: sol, Cost: cost, Queue: q, Active: active}, nil
}

// Settle finishes the slot with the realized off-site generation: the
// Eq. (17) queue update, the switching-anchor commit, and the clock
// advance. Only settled outcomes move controller state — the same
// feedback-driven commit discipline as the sim policy's Observe.
func (c *Controller) Settle(out SlotOutcome, offsiteKWh float64) {
	q := c.queue.Update(out.Cost.GridKWh, offsiteKWh)
	if c.queueGauge != nil {
		c.queueGauge.Set(q)
	}
	c.prevActive = out.Active
	c.slot++
}

// Queue exposes the deficit-queue length.
func (c *Controller) Queue() float64 { return c.queue.Len() }

// InstrumentQueue exports the carbon-deficit queue length q(t) through
// the given telemetry gauge, updated on every frame reset and Settle.
func (c *Controller) InstrumentQueue(g *telemetry.Gauge) { c.queueGauge = g }

// Slot returns the next slot index to be stepped.
func (c *Controller) Slot() int { return c.slot }
