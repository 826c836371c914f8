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
// One Algorithm-1 loop (the schedule, the queue with its frame reset and
// update, the switching anchor) drives two P3 back-ends: Policy, a
// sim.Policy that solves the homogeneous fleet's P3 exactly
// (sim.Scenario.P3At), and Controller, the group-level form that works with
// any p3.Solver — in particular GSD, the paper's distributed solver — for
// heterogeneous clusters.
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

// ErrScheduleExhausted is returned by Policy.Decide and Controller.Step
// for a slot past the V schedule's horizon.
var ErrScheduleExhausted = errors.New("core: V schedule exhausted")

// ErrActiveOutsideFleet is returned by RestoreFrom for a checkpoint whose
// switching anchor, prev_active, is negative or above the fleet: no slot
// of this fleet can have settled there.
var ErrActiveOutsideFleet = errors.New("core: checkpoint prev_active outside the fleet")

// loop is Algorithm 1 without its P3: the V schedule, the deficit queue
// with its frame reset (lines 2–4) and Eq. (17) update, the settled
// switching-cost anchor and the q(t) gauge. Policy and Controller embed it
// and add only their P3 back-end and cost accounting.
type loop struct {
	sched lyapunov.VSchedule
	queue *lyapunov.DeficitQueue

	// prevActive is the switching-cost anchor: the active count of the
	// last slot that settled. A decision only proposes its count; the
	// anchor moves when the slot settles, so a rejected or abandoned step
	// can be retried against the configuration actually operated last.
	prevActive int

	// queueGauge, when set, exports q(t) to the telemetry layer.
	queueGauge *telemetry.Gauge
}

func newLoop(sched lyapunov.VSchedule, alpha, recPerSlotKWh float64) (loop, error) {
	if err := sched.Validate(sched.Slots()); err != nil {
		return loop{}, err
	}
	if err := lyapunov.CheckQueueParams(alpha, recPerSlotKWh); err != nil {
		return loop{}, fmt.Errorf("core: %w", err)
	}
	return loop{sched: sched, queue: lyapunov.NewDeficitQueue(alpha, recPerSlotKWh)}, nil
}

// begin opens slot t: it empties the queue at a frame start and returns
// the frame's V_r and q(t), the inputs of P3's weights.
func (l *loop) begin(t int) (v, q float64, err error) {
	if t >= l.sched.Slots() {
		return 0, 0, fmt.Errorf("core: slot %d beyond the schedule horizon %d: %w",
			t, l.sched.Slots(), ErrScheduleExhausted)
	}
	if l.sched.FrameStart(t) {
		l.queue.Reset()
		l.gauge()
	}
	return l.sched.V(t), l.queue.Len(), nil
}

// settle closes a slot: the Eq. (17) update with the realized grid draw
// and off-site generation, and the commit of the slot's active count as
// the next switching anchor.
func (l *loop) settle(gridKWh, offsiteKWh float64, active int) {
	l.queue.Update(gridKWh, offsiteKWh)
	l.gauge()
	l.prevActive = active
}

func (l *loop) gauge() {
	if l.queueGauge != nil {
		l.queueGauge.Set(l.queue.Len())
	}
}

// restore validates a checkpoint's shared part and, if rest (the form's
// own restore, which may be nil) also succeeds, replaces the loop's state
// with it. The queue's α and z are construction parameters: a checkpoint
// written with other values is refused rather than adopted. fleet is the
// number of servers, the largest switching anchor a slot can settle.
func (l *loop) restore(kind string, version, want int, qc lyapunov.QueueCheckpoint, prevActive, fleet int, rest func() error) error {
	if version != want {
		return fmt.Errorf("core: %s checkpoint version %d, want %d", kind, version, want)
	}
	if prevActive < 0 || prevActive > fleet {
		return fmt.Errorf("%w: %s checkpoint has %d, fleet %d", ErrActiveOutsideFleet, kind, prevActive, fleet)
	}
	own := l.queue.Checkpoint()
	if math.Float64bits(qc.Alpha) != math.Float64bits(own.Alpha) || math.Float64bits(qc.Z) != math.Float64bits(own.Z) {
		return fmt.Errorf("core: %s checkpoint queue has alpha %v, z %v; this %s runs alpha %v, z %v",
			kind, qc.Alpha, qc.Z, kind, own.Alpha, own.Z)
	}
	queue := *l.queue
	if err := queue.RestoreFrom(qc); err != nil {
		return err
	}
	if rest != nil {
		if err := rest(); err != nil {
			return err
		}
	}
	*l.queue = queue
	l.prevActive = prevActive
	l.gauge()
	return nil
}

// Queue exposes the current deficit-queue length q(t).
func (l *loop) Queue() float64 { return l.queue.Len() }

// InstrumentQueue exports the carbon-deficit queue length q(t) through
// the given telemetry gauge, updated on every frame reset and settle.
func (l *loop) InstrumentQueue(g *telemetry.Gauge) { l.queueGauge = g }

// Config parameterizes COCA for the homogeneous sim engine: the scenario
// supplies the fleet, the P3 switching cost and the portfolio's α and z;
// the schedule fixes frames and per-frame V_r (Algorithm 1 lines 2–4).
type Config struct {
	Scenario *sim.Scenario
	Schedule lyapunov.VSchedule
}

// FromScenario pairs a sim scenario with a V schedule.
func FromScenario(sc *sim.Scenario, sched lyapunov.VSchedule) Config {
	return Config{Scenario: sc, Schedule: sched}
}

// Policy is COCA as a sim.Policy over a homogeneous fleet.
type Policy struct {
	loop
	sc *sim.Scenario

	// pendingActive is Decide's proposed active count, committed as the
	// switching anchor when the engine confirms the slot through Observe.
	pendingActive int
	vOverride     float64
}

// New builds a COCA policy. The scenario must be valid and the schedule
// must cover its horizon.
func New(cfg Config) (*Policy, error) {
	sc := cfg.Scenario
	if sc == nil {
		return nil, errors.New("core: nil scenario")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if n := cfg.Schedule.Slots(); n < sc.Slots {
		return nil, fmt.Errorf("core: schedule covers %d slots, horizon is %d", n, sc.Slots)
	}
	l, err := newLoop(cfg.Schedule, sc.Portfolio.Alpha, sc.Portfolio.RECPerSlotKWh(sc.Slots))
	if err != nil {
		return nil, err
	}
	return &Policy{loop: l, sc: sc}, nil
}

// SetV overrides the schedule's cost-carbon parameter for subsequent slots
// without touching frame boundaries — used by ablation studies that vary V
// while keeping (or suppressing) queue resets. Zero restores the schedule.
func (p *Policy) SetV(v float64) { p.vOverride = v }

// Name implements sim.Policy.
func (p *Policy) Name() string { return "coca" }

// Decide implements sim.Policy: Algorithm 1 lines 2–5 through the exact
// homogeneous P3 solver.
func (p *Policy) Decide(obs sim.Observation) (sim.Config, error) {
	v, q, err := p.begin(obs.Slot)
	if err != nil {
		return sim.Config{}, err
	}
	if p.vOverride > 0 {
		v = p.vOverride
	}
	hp := p.sc.P3At(obs, v, q)
	hp.SwitchWeight = v * obs.PriceUSDPerKWh * p.sc.SwitchCostKWh
	hp.PrevActive = p.prevActive
	sol, err := hp.Solve()
	if err != nil {
		return sim.Config{}, err
	}
	p.pendingActive = sol.Active
	return sim.Config{Speed: sol.Speed, Active: sol.Active}, nil
}

// Observe implements sim.Policy: it settles the slot with the realized
// grid draw and off-site generation, committing Decide's active count.
func (p *Policy) Observe(fb sim.Feedback) {
	p.settle(fb.GridKWh, fb.OffsiteKWh, p.pendingActive)
}

var _ sim.Policy = (*Policy)(nil)

// Controller is the group-level COCA loop for heterogeneous clusters: the
// caller supplies any P3 solver (typically gsd.Solver, the paper's
// distributed algorithm) and feeds environments slot by slot.
type Controller struct {
	loop
	Cluster *dcmodel.Cluster
	Beta    float64
	Solver  p3.Solver

	// SlotHours and SwitchCostKWh are the Ledger extensions of the sim
	// path — slot duration and the Fig. 5(d) toggling charge. The zero
	// values reproduce the paper's defaults; set them (before the first
	// Step) to make heterogeneous accounting match a sim.Scenario
	// carrying the same knobs. Step refuses a NaN, infinite or negative
	// value of either.
	SlotHours     float64
	SwitchCostKWh float64

	slot int
}

// NewController builds a group-level COCA controller.
func NewController(cluster *dcmodel.Cluster, beta float64, sched lyapunov.VSchedule, alpha, recPerSlotKWh float64, solver p3.Solver) (*Controller, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if err := dcmodel.CheckBeta(beta); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if solver == nil {
		return nil, fmt.Errorf("core: nil P3 solver")
	}
	l, err := newLoop(sched, alpha, recPerSlotKWh)
	if err != nil {
		return nil, err
	}
	return &Controller{loop: l, Cluster: cluster, Beta: beta, Solver: solver}, nil
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
	if err := dcmodel.CheckSlotExtensions(c.SlotHours, c.SwitchCostKWh); err != nil {
		return SlotOutcome{}, fmt.Errorf("core: %w", err)
	}
	v, q, err := c.begin(c.slot)
	if err != nil {
		return SlotOutcome{}, err
	}
	we, wd := dcmodel.P3Weights(v, q, env.PriceUSDPerKWh, c.Beta)
	sol, err := c.Solver.Solve(&dcmodel.SlotProblem{
		Cluster:   c.Cluster,
		LambdaRPS: env.LambdaRPS,
		We:        we, Wd: wd,
		OnsiteKW: env.OnsiteKW,
	})
	if err != nil {
		return SlotOutcome{}, fmt.Errorf("core: slot %d: %w", c.slot, err)
	}
	// Charge prices through the shared dcmodel.Ledger kernel with the full
	// extension set — slot duration and the toggling charge against the
	// last settled slot — so the controller's accounting matches
	// internal/sim exactly.
	active := c.Cluster.ActiveServers(sol.Speeds)
	cost := c.Cluster.Charge(&dcmodel.Ledger{
		PriceUSDPerKWh: env.PriceUSDPerKWh,
		OnsiteKW:       env.OnsiteKW,
		Beta:           c.Beta,
		SlotHours:      c.SlotHours,
		SwitchCostKWh:  c.SwitchCostKWh,
	}, sol.Speeds, sol.Load, active-c.prevActive)
	return SlotOutcome{Solution: sol, Cost: cost, Queue: q, Active: active}, nil
}

// Settle finishes the slot with the realized off-site generation: the
// Eq. (17) queue update, the switching-anchor commit, and the clock
// advance. Only settled outcomes move controller state — the same
// feedback-driven commit discipline as the sim policy's Observe.
func (c *Controller) Settle(out SlotOutcome, offsiteKWh float64) {
	c.settle(out.Cost.GridKWh, offsiteKWh, out.Active)
	c.slot++
}

// Slot returns the next slot index to be stepped.
func (c *Controller) Slot() int { return c.slot }
