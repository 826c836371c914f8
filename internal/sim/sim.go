// Package sim is the discrete-time (hourly-slot) simulation engine that
// drives resource-management policies over a budgeting period, mirroring
// the paper's trace-based evaluation (§5). Each slot the engine shows a
// policy the currently known environment — workload arrival rate λ(t),
// on-site renewable supply r(t) and electricity price w(t), optionally
// overestimated by the φ factor of the Fig. 5(c) study — receives a fleet
// configuration (a speed level and an active-server count for the paper's
// homogeneous §5.1 deployment), operates that configuration against the
// *true* arrivals, charges electricity, delay and switching costs, and
// finally reveals the realized off-site generation f(t) so online policies
// can update their carbon-deficit queues.
package sim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dcmodel"
	"repro/internal/p3"
	"repro/internal/renewable"
	"repro/internal/stats"
	"repro/internal/telemetry/span"
	"repro/internal/trace"
)

// Observation is the information available to a policy at the beginning of
// a slot (the paper's hour-ahead knowledge: λ(t), r(t), w(t) — but not
// f(t), which is realized only at the end of the slot).
type Observation struct {
	Slot           int
	LambdaRPS      float64
	OnsiteKW       float64
	PriceUSDPerKWh float64
}

// Config is a fleet configuration for one slot of the homogeneous
// deployment: Active servers all running at speed level Speed.
type Config struct {
	Speed  int
	Active int
}

// Feedback is revealed to the policy after the slot has been operated.
type Feedback struct {
	Slot       int
	GridKWh    float64 // realized y(t) = [p − r]^+
	OffsiteKWh float64 // realized f(t)
	TotalUSD   float64 // realized slot cost including switching
}

// Policy is a per-slot decision maker.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide returns the configuration for the slot.
	Decide(obs Observation) (Config, error)
	// Observe delivers the slot's realized outcome.
	Observe(fb Feedback)
}

// Scenario bundles everything the engine needs for a run.
type Scenario struct {
	Server dcmodel.ServerType
	N      int     // fleet size
	Gamma  float64 // γ utilization cap
	PUE    float64
	Beta   float64 // β delay weight

	Workload  *trace.Trace         // λ(t) in RPS
	Price     *trace.Trace         // w(t) in $/kWh
	Portfolio *renewable.Portfolio // r(t), f(t), Z, α

	Slots int // horizon J

	// Overestimate is the φ ≥ 1 factor of Fig. 5(c): policies see φ·λ(t)
	// (clamped to fleet capacity) while costs use the true λ(t). Zero means
	// 1 (no overestimation).
	Overestimate float64

	// SwitchCostKWh is the energy-equivalent cost of toggling one server on
	// or off (Fig. 5(d); the paper normalizes against 0.231 kWh). Charged at
	// the slot's electricity price. It is also exposed to policies via the
	// observation-independent accessor so they can internalize it.
	SwitchCostKWh float64

	// SlotHours is the slot duration in hours; 0 means 1 (the paper's
	// hourly slots). It is threaded into every slot's Ledger, where it is
	// the single kW→kWh conversion: grid draw and facility energy scale
	// with it, while delay cost (a per-slot aggregate) and switching
	// energy (per toggle) do not.
	SlotHours float64
}

// Clone returns a shallow copy of the scenario. Traces and the portfolio
// are shared — they are read-only during runs — so cloning is the cheap
// way for concurrent sweeps to vary scalar knobs (Overestimate,
// SwitchCostKWh, ...) without racing on a shared Scenario.
func (sc *Scenario) Clone() *Scenario {
	out := *sc
	return &out
}

// Validate reports whether the scenario is well formed.
func (sc *Scenario) Validate() error {
	// The fleet is a one-group cluster, whose checks cover the server
	// type, N, γ and PUE.
	fleet := dcmodel.Cluster{Groups: []dcmodel.Group{{Type: sc.Server, N: sc.N}}, Gamma: sc.Gamma, PUE: sc.PUE}
	if err := fleet.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := dcmodel.CheckBeta(sc.Beta); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if sc.Slots <= 0 {
		return fmt.Errorf("sim: horizon %d", sc.Slots)
	}
	if sc.Workload == nil || sc.Workload.Len() < sc.Slots {
		return errors.New("sim: workload trace missing or shorter than horizon")
	}
	if sc.Price == nil || sc.Price.Len() < sc.Slots {
		return errors.New("sim: price trace missing or shorter than horizon")
	}
	if sc.Portfolio == nil {
		return errors.New("sim: missing renewable portfolio")
	}
	if err := sc.Portfolio.Validate(sc.Slots); err != nil {
		return err
	}
	// The checks are negated so that NaN, which fails every comparison,
	// is rejected rather than waved through.
	// An infinite φ would make Observe's φ·λ NaN on a zero-load slot.
	if sc.Overestimate != 0 && !(sc.Overestimate >= 1 && sc.Overestimate <= math.MaxFloat64) {
		return fmt.Errorf("sim: overestimation factor %v below 1 or not finite", sc.Overestimate)
	}
	if err := dcmodel.CheckSlotExtensions(sc.SlotHours, sc.SwitchCostKWh); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	maxLambda := stats.MaxOf(sc.Workload.Values[:sc.Slots])
	if maxLambda > sc.Capacity() {
		return fmt.Errorf("sim: peak workload %v exceeds usable capacity %v", maxLambda, sc.Capacity())
	}
	return nil
}

// Capacity returns the γ-discounted top-speed fleet capacity in RPS.
func (sc *Scenario) Capacity() float64 {
	return sc.Gamma * float64(sc.N) * sc.Server.MaxRate()
}

// Observe builds the (possibly overestimated) observation for slot t.
func (sc *Scenario) Observe(t int) Observation {
	lambda := sc.Workload.Values[t]
	if sc.Overestimate > 1 {
		lambda = math.Min(lambda*sc.Overestimate, sc.Capacity())
	}
	return Observation{
		Slot:           t,
		LambdaRPS:      lambda,
		OnsiteKW:       sc.Portfolio.OnsiteKW.Values[t],
		PriceUSDPerKWh: sc.Price.Values[t],
	}
}

// LedgerAt builds the shared slot-cost kernel for slot t with the REC
// allowance z (callers that step many slots compute z once via
// Portfolio.RECPerSlotKWh and pass it in).
func (sc *Scenario) LedgerAt(t int, zPerSlot float64) dcmodel.Ledger {
	return dcmodel.Ledger{
		PriceUSDPerKWh: sc.Price.Values[t],
		OnsiteKW:       sc.Portfolio.OnsiteKW.Values[t],
		Beta:           sc.Beta,
		SlotHours:      sc.SlotHours,
		SwitchCostKWh:  sc.SwitchCostKWh,
		Alpha:          sc.Portfolio.Alpha,
		RECPerSlotKWh:  zPerSlot,
	}
}

// P3At builds the homogeneous P3 of Eq. (16) for the observed slot at
// control parameter v and grid price q: We = v·w(t) + q and Wd = v·β.
// COCA passes its V_r and deficit queue q(t) and sets the switching terms
// on top; the baselines' dual solves pass v = 1 and q = η, which is
// bit-identical to pricing grid energy at w(t) + η.
func (sc *Scenario) P3At(obs Observation, v, q float64) p3.HomogeneousProblem {
	we, wd := dcmodel.P3Weights(v, q, obs.PriceUSDPerKWh, sc.Beta)
	return p3.HomogeneousProblem{
		Type: sc.Server, N: sc.N,
		Gamma: sc.Gamma, PUE: sc.PUE,
		LambdaRPS: obs.LambdaRPS,
		We:        we, Wd: wd,
		OnsiteKW: obs.OnsiteKW,
	}
}

// SlotRecord is the full accounting of one operated slot.
type SlotRecord struct {
	Slot           int
	LambdaRPS      float64
	PriceUSDPerKWh float64
	OnsiteKW       float64
	OffsiteKWh     float64

	Speed  int
	Active int

	PowerKW        float64
	EnergyKWh      float64 // facility energy p·SlotHours, incl. on-site-covered power
	GridKWh        float64
	ElectricityUSD float64
	DelayCost      float64
	DelayUSD       float64
	SwitchUSD      float64
	TotalUSD       float64

	// DeficitKWh is this slot's budget overrun y(t) − α·f(t) − z (can be
	// negative); its running average is the paper's "carbon deficit".
	DeficitKWh float64
}

// Result is a completed run.
type Result struct {
	Policy  string
	Records []SlotRecord
}

// ErrOverload is returned when a policy's configuration cannot legally
// carry the slot's true arrivals (the paper's model never drops workload).
var ErrOverload = errors.New("sim: configuration cannot carry the offered load")

// ErrDone is returned by Engine.Step once the horizon is exhausted.
var ErrDone = errors.New("sim: run already complete")

// Observer is a per-slot instrumentation hook: it receives every operated
// slot's record as soon as the slot settles, before the policy's feedback.
// Observers must not retain or mutate engine state; they are for metrics,
// streaming exports and tests.
type Observer func(rec SlotRecord)

// Engine is the resumable, step-wise slot executor: it drives a policy
// over a scenario one slot at a time, charging each slot through the
// shared dcmodel.Ledger kernel. Run is a thin wrapper that steps an Engine
// to completion; callers that need per-slot control (checkpointing,
// interleaving several runs, live dashboards) step it themselves:
//
//	e, err := NewEngine(sc, policy)
//	for !e.Done() {
//		if err := e.Step(); err != nil { ... }
//	}
//	res := e.Result()
type Engine struct {
	sc        *Scenario
	policy    Policy
	res       *Result
	observers []Observer
	tracer    *span.Tracer

	zPerSlot   float64
	prevActive int
	t          int

	// rec is the slot being charged. A recording engine appends it to the
	// records; a summary run (RunSummary) only adds it to sums.
	rec       SlotRecord
	recording bool
	sums      totals
}

// NewEngine validates the scenario and prepares a run of the policy over
// it. Observers, if any, are invoked in order for every operated slot.
func NewEngine(sc *Scenario, p Policy, observers ...Observer) (*Engine, error) {
	return newEngine(sc, p, true, observers)
}

// newEngine is NewEngine, recording every slot or (for a summary run) none.
func newEngine(sc *Scenario, p Policy, recording bool, observers []Observer) (*Engine, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		sc:        sc,
		policy:    p,
		res:       &Result{Policy: p.Name()},
		observers: observers,
		zPerSlot:  sc.Portfolio.RECPerSlotKWh(sc.Slots),
		recording: recording,
	}
	if recording {
		e.res.Records = make([]SlotRecord, 0, sc.Slots)
	}
	return e, nil
}

// SetTracer attaches a span tracer: every subsequent Step records a
// "sim.slot" span with "sim.decide", "sim.operate" and "sim.observe"
// children. Parenting is ambient, so a policy (or its P3 solver) started
// on the same tracer nests its own spans under the decide span. A nil
// tracer (the default) keeps the hot path untouched — tracing never
// changes a single charged number, only observes them.
func (e *Engine) SetTracer(tr *span.Tracer) { e.tracer = tr }

// Done reports whether the horizon is exhausted.
func (e *Engine) Done() bool { return e.t >= e.sc.Slots }

// Slot returns the next slot index to be stepped.
func (e *Engine) Slot() int { return e.t }

// Result returns the run so far. After Done it is the completed run; the
// returned value aliases the engine's records.
func (e *Engine) Result() *Result { return e.res }

// Step executes one slot: observe, decide, operate and charge through the
// Ledger, notify observers, and reveal the realized feedback to the
// policy. A failed step leaves the engine at the failed slot.
func (e *Engine) Step() error {
	if e.Done() {
		return ErrDone
	}
	t := e.t
	obs := e.sc.Observe(t)
	var slotSpan, child *span.Span
	if e.tracer != nil {
		slotSpan = e.tracer.Start("sim.slot",
			span.Int("slot", t),
			span.Float("lambda_rps", obs.LambdaRPS),
			span.Float("onsite_kw", obs.OnsiteKW),
			span.Float("price_usd_per_kwh", obs.PriceUSDPerKWh))
		child = e.tracer.Start("sim.decide")
	}
	cfg, err := e.policy.Decide(obs)
	if e.tracer != nil {
		child.Set(span.Int("speed", cfg.Speed), span.Int("active", cfg.Active))
		e.endSpan(child, err)
	}
	if err != nil {
		e.endSpan(slotSpan, err)
		return fmt.Errorf("sim: slot %d: %w", t, err)
	}
	if e.tracer != nil {
		child = e.tracer.Start("sim.operate",
			span.Int("speed", cfg.Speed), span.Int("active", cfg.Active))
	}
	rec := &e.rec
	err = e.sc.operate(rec, t, cfg, e.prevActive, e.zPerSlot)
	if e.tracer != nil {
		child.Set(span.Float("total_usd", rec.TotalUSD), span.Float("grid_kwh", rec.GridKWh))
		e.endSpan(child, err)
	}
	if err != nil {
		e.endSpan(slotSpan, err)
		return fmt.Errorf("sim: slot %d: %w", t, err)
	}
	if e.recording {
		e.res.Records = append(e.res.Records, *rec)
	} else {
		e.sums.add(rec)
	}
	for _, ob := range e.observers {
		ob(*rec)
	}
	if e.tracer != nil {
		child = e.tracer.Start("sim.observe",
			span.Float("grid_kwh", rec.GridKWh), span.Float("offsite_kwh", rec.OffsiteKWh))
	}
	e.policy.Observe(Feedback{
		Slot:       t,
		GridKWh:    rec.GridKWh,
		OffsiteKWh: rec.OffsiteKWh,
		TotalUSD:   rec.TotalUSD,
	})
	if e.tracer != nil {
		child.End()
		slotSpan.Set(
			span.Int("speed", rec.Speed),
			span.Int("active", rec.Active),
			span.Float("total_usd", rec.TotalUSD),
			span.Float("grid_kwh", rec.GridKWh),
			span.Float("deficit_kwh", rec.DeficitKWh))
		slotSpan.End()
	}
	e.prevActive = cfg.Active
	e.t++
	return nil
}

// endSpan closes a step span, tagging it with the error that failed the
// slot (a failed step leaves the engine at the failed slot; a retry
// records a fresh slot span).
func (e *Engine) endSpan(s *span.Span, err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.Set(span.Str("error", err.Error()))
	}
	s.End()
}

// Run drives the policy over the scenario's horizon: a thin wrapper that
// steps a fresh Engine to completion.
func Run(sc *Scenario, p Policy) (*Result, error) {
	return RunObserved(sc, p)
}

// RunObserved is Run with per-slot instrumentation hooks.
func RunObserved(sc *Scenario, p Policy, observers ...Observer) (*Result, error) {
	return RunTraced(sc, p, nil, observers...)
}

// RunTraced is RunObserved with a span tracer attached to the engine: the
// run records a sim.slot span per slot with decide/operate/observe
// children, and any tracer-aware policy layers (the GSD solver, geo
// allocation) nest their own spans underneath. A nil tracer makes it
// exactly RunObserved.
func RunTraced(sc *Scenario, p Policy, tr *span.Tracer, observers ...Observer) (*Result, error) {
	e, err := NewEngine(sc, p, observers...)
	if err != nil {
		return nil, err
	}
	e.SetTracer(tr)
	for !e.Done() {
		if err := e.Step(); err != nil {
			return nil, err
		}
	}
	return e.Result(), nil
}

// RunSummary drives the policy over the scenario's horizon like
// RunObserved, but keeps no records: each slot is charged into one scratch
// record and added to running sums, so the summary is bit-equal to
// Summarize of the recorded run. Observers see the same records in the
// same order, and a failed slot returns the same error.
func RunSummary(sc *Scenario, p Policy, observers ...Observer) (Summary, error) {
	e, err := newEngine(sc, p, false, observers)
	if err != nil {
		return Summary{}, err
	}
	for !e.Done() {
		if err := e.Step(); err != nil {
			return Summary{}, err
		}
	}
	return e.sums.summary(sc, e.res.Policy), nil
}

// operate charges one slot of the given configuration against the true
// environment through the shared Ledger kernel, writing the record into rec.
func (sc *Scenario) operate(rec *SlotRecord, t int, cfg Config, prevActive int, zPerSlot float64) error {
	lambda := sc.Workload.Values[t]
	offsite := sc.Portfolio.OffsiteKWh.Values[t]
	led := sc.LedgerAt(t, zPerSlot)

	*rec = SlotRecord{
		Slot: t, LambdaRPS: lambda, PriceUSDPerKWh: led.PriceUSDPerKWh,
		OnsiteKW: led.OnsiteKW, OffsiteKWh: offsite,
		Speed: cfg.Speed, Active: cfg.Active,
	}
	if cfg.Active < 0 || cfg.Active > sc.N {
		return fmt.Errorf("%w: active=%d of %d", ErrOverload, cfg.Active, sc.N)
	}
	if cfg.Speed < 0 || cfg.Speed > sc.Server.NumSpeeds() {
		return fmt.Errorf("sim: speed index %d out of range", cfg.Speed)
	}
	if lambda > 0 {
		if cfg.Active == 0 || cfg.Speed == 0 {
			return ErrOverload
		}
		perServer := lambda / float64(cfg.Active)
		if perServer > sc.Gamma*sc.Server.Rate(cfg.Speed)*(1+1e-9) {
			return fmt.Errorf("%w: per-server load %v exceeds γ·x = %v",
				ErrOverload, perServer, sc.Gamma*sc.Server.Rate(cfg.Speed))
		}
	}
	powerKW, delayCost := 0.0, 0.0
	if cfg.Active > 0 && cfg.Speed > 0 {
		g := dcmodel.Group{Type: sc.Server, N: cfg.Active}
		powerKW = sc.PUE * g.PowerKW(cfg.Speed, lambda)
		delayCost = g.DelayCost(cfg.Speed, lambda)
	}
	ch := led.Charge(powerKW, delayCost, cfg.Active-prevActive)
	rec.PowerKW = ch.PowerKW
	rec.EnergyKWh = ch.EnergyKWh
	rec.GridKWh = ch.GridKWh
	rec.ElectricityUSD = ch.ElectricityUSD
	rec.DelayCost = ch.DelayCost
	rec.DelayUSD = ch.DelayUSD
	rec.SwitchUSD = ch.SwitchUSD
	rec.TotalUSD = ch.TotalUSD
	rec.DeficitKWh = led.Deficit(ch.GridKWh, offsite)
	return nil
}

// Summary aggregates a run for reporting.
type Summary struct {
	Policy string
	Slots  int
	// SlotHours is the slot duration the run was charged at (the
	// scenario's SlotHours, defaulting to the paper's 1-hour slots).
	SlotHours float64

	AvgHourlyCostUSD    float64
	AvgElectricityUSD   float64
	AvgDelayUSD         float64
	AvgSwitchUSD        float64
	TotalGridKWh        float64
	TotalEnergyKWh      float64 // facility consumption including on-site-covered power
	AvgDeficitKWh       float64 // average hourly carbon deficit
	FinalRunningDeficit float64 // cumulative deficit at the end (can be negative)
	BudgetKWh           float64
	BudgetUsedFraction  float64 // grid usage / budget: ≤ 1 means carbon neutral

	// ShortfallKWh is the grid energy beyond the budget that would have to
	// be offset by buying extra RECs at the end of the period — the §4.3
	// remedy for the bounded neutrality deviation ("data centers may
	// purchase additional RECs at the end of a budgeting period to offset
	// the remaining electricity usage"). Zero when neutral.
	ShortfallKWh float64
	// TrueUpUSD prices the shortfall at recPriceUSDPerKWh (see
	// SummarizeWithTrueUp); zero in plain Summarize.
	TrueUpUSD float64
}

// totals are a run's running sums, added in slot order. Summarize and
// RunSummary both fold slots through add, so the sum order exists once.
type totals struct {
	slots                                        int
	cost, elec, delay, sw, grid, energy, deficit float64
}

func (a *totals) add(r *SlotRecord) {
	a.slots++
	a.cost += r.TotalUSD
	a.elec += r.ElectricityUSD
	a.delay += r.DelayUSD
	a.sw += r.SwitchUSD
	a.grid += r.GridKWh
	a.energy += r.EnergyKWh
	a.deficit += r.DeficitKWh
}

// summary computes the aggregates of the summed slots against the
// scenario's budget.
func (a *totals) summary(sc *Scenario, policy string) Summary {
	led := dcmodel.Ledger{SlotHours: sc.SlotHours}
	s := Summary{Policy: policy, Slots: a.slots, SlotHours: led.Hours()}
	if a.slots == 0 {
		return s
	}
	n := float64(a.slots)
	s.AvgHourlyCostUSD = a.cost / n
	s.AvgElectricityUSD = a.elec / n
	s.AvgDelayUSD = a.delay / n
	s.AvgSwitchUSD = a.sw / n
	s.TotalGridKWh = a.grid
	s.TotalEnergyKWh = a.energy
	s.AvgDeficitKWh = a.deficit / n
	s.FinalRunningDeficit = a.deficit
	s.BudgetKWh = sc.Portfolio.BudgetKWh(sc.Slots)
	if s.BudgetKWh > 0 {
		s.BudgetUsedFraction = a.grid / s.BudgetKWh
	}
	if a.grid > s.BudgetKWh {
		s.ShortfallKWh = a.grid - s.BudgetKWh
	}
	return s
}

// Summarize computes the run's aggregates against the scenario's budget.
func Summarize(sc *Scenario, res *Result) Summary {
	var a totals
	for i := range res.Records {
		a.add(&res.Records[i]) // read in place: a SlotRecord is 16 words
	}
	return a.summary(sc, res.Policy)
}

// SummarizeWithTrueUp is Summarize plus the §4.3 end-of-period REC
// purchase: any budget shortfall is priced at recPriceUSDPerKWh and folded
// into TrueUpUSD (and, amortized per slot, into AvgHourlyCostUSD), making
// every policy exactly carbon neutral at a cost.
func SummarizeWithTrueUp(sc *Scenario, res *Result, recPriceUSDPerKWh float64) Summary {
	s := Summarize(sc, res)
	if recPriceUSDPerKWh < 0 {
		recPriceUSDPerKWh = 0
	}
	s.TrueUpUSD = s.ShortfallKWh * recPriceUSDPerKWh
	if s.Slots > 0 {
		s.AvgHourlyCostUSD += s.TrueUpUSD / float64(s.Slots)
	}
	return s
}

// Series extracts one metric from the records.
func (r *Result) Series(f func(SlotRecord) float64) []float64 {
	return r.series(func(rec *SlotRecord) float64 { return f(*rec) })
}

// series is Series reading each record in place.
func (r *Result) series(f func(*SlotRecord) float64) []float64 {
	out := make([]float64, len(r.Records))
	for i := range r.Records {
		out[i] = f(&r.Records[i])
	}
	return out
}

// CostSeries returns the per-slot total cost.
func (r *Result) CostSeries() []float64 {
	return r.series(func(rec *SlotRecord) float64 { return rec.TotalUSD })
}

// DeficitSeries returns the per-slot carbon deficit.
func (r *Result) DeficitSeries() []float64 {
	return r.series(func(rec *SlotRecord) float64 { return rec.DeficitKWh })
}
