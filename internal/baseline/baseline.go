// Package baseline implements the comparison algorithms of the paper's
// evaluation:
//
//   - Unaware — the carbon-unaware algorithm (§5.2.1): minimizes the
//     instantaneous cost g(t) every slot and ignores the budget entirely
//     (COCA's V → ∞ limit). Its yearly usage defines the reference against
//     which carbon budgets are sized.
//   - OPT — the optimal offline algorithm (§5.2.4, Fig. 5): full knowledge
//     of the year, minimizes total cost subject to the yearly budget. We
//     solve it by Lagrangian duality: with a multiplier η on the budget the
//     problem decouples into per-slot solves with electricity weight
//     w(t) + η; η is bisected until the yearly grid usage meets the budget
//     (complementary slackness). With 8760 coupled slots the relaxation's
//     duality gap is negligible.
//   - PerfectHP — the prediction-based heuristic COCA is compared against
//     (§5.2.2): 48-hour frames, the frame's carbon budget (off-site
//     renewables plus the frame's REC share) allocated to hours in
//     proportion to perfectly predicted hourly workloads; each hour the
//     cost is minimized subject to the hourly cap, and the cap is dropped
//     whenever it is infeasible.
//   - Lookahead — the T-step lookahead family P2 (§3.2): per-frame budget
//     constraints solved by the same dual bisection, providing the frame
//     optima G_r* that appear in Theorem 2's bounds.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dcmodel"
	"repro/internal/numopt"
	"repro/internal/p3"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// solver wraps the homogeneous per-slot solve with an extra grid weight η:
// minimize (w+η)·[p − r]^+ + β·d.
type solver struct {
	sc *sim.Scenario
}

func (s solver) solve(obs sim.Observation, eta float64) (p3.HomogeneousSolution, error) {
	hp := &p3.HomogeneousProblem{
		Type: s.sc.Server, N: s.sc.N,
		Gamma: s.sc.Gamma, PUE: s.sc.PUE,
		LambdaRPS:    obs.LambdaRPS,
		We:           obs.PriceUSDPerKWh + eta,
		Wd:           s.sc.Beta,
		OnsiteKW:     obs.OnsiteKW,
		MaxPowerKW:   s.sc.MaxPowerKW,
		MaxDelayCost: s.sc.MaxDelayCost,
	}
	if s.sc.Tariff != nil {
		w := obs.PriceUSDPerKWh
		tariff := s.sc.Tariff
		hp.GridCostFn = func(g float64) float64 {
			return w*tariff.Cost(g) + eta*g
		}
	}
	return hp.Solve()
}

// ledger builds the slot-cost kernel for the observed slot, including the
// scenario's tariff and slot duration, so the planners price candidate
// configurations with exactly the accounting the simulator charges.
func (s solver) ledger(obs sim.Observation) dcmodel.Ledger {
	return dcmodel.Ledger{
		PriceUSDPerKWh: obs.PriceUSDPerKWh,
		OnsiteKW:       obs.OnsiteKW,
		Beta:           s.sc.Beta,
		SlotHours:      s.sc.SlotHours,
		Tariff:         s.sc.Tariff,
	}
}

// trueObs builds the non-overestimated observation for slot t (oracles see
// the truth).
func (s solver) trueObs(t int) sim.Observation {
	return sim.Observation{
		Slot:           t,
		LambdaRPS:      s.sc.Workload.Values[t],
		OnsiteKW:       s.sc.Portfolio.OnsiteKW.Values[t],
		PriceUSDPerKWh: s.sc.Price.Values[t],
	}
}

func (s solver) gridAt(obs sim.Observation, eta float64) float64 {
	return gridOf(s.solve(obs, eta))
}

// gridOf is a solve's grid usage, +Inf when the solve failed, so a failed
// probe always reads as over any cap.
func gridOf(sol p3.HomogeneousSolution, err error) float64 {
	if err != nil {
		return math.Inf(1)
	}
	return sol.GridKWh
}

// Unaware is the carbon-unaware instantaneous cost minimizer.
type Unaware struct {
	s solver
	// MinSlotCost tracks the smallest per-slot cost among *operated*
	// slots, the g_min of Theorem 2.
	MinSlotCost float64
	// pendingCost is the candidate from the last Decide; it folds into
	// MinSlotCost only when the engine confirms the slot via Observe, so
	// a rejected-and-retried step cannot record the cost of a
	// configuration that never ran.
	pendingCost float64
}

// NewUnaware builds the carbon-unaware policy for a scenario.
func NewUnaware(sc *sim.Scenario) *Unaware {
	return &Unaware{s: solver{sc: sc}, MinSlotCost: math.Inf(1), pendingCost: math.Inf(1)}
}

// Name implements sim.Policy.
func (u *Unaware) Name() string { return "carbon-unaware" }

// Decide implements sim.Policy.
func (u *Unaware) Decide(obs sim.Observation) (sim.Config, error) {
	sol, err := u.s.solve(obs, 0)
	if err != nil {
		return sim.Config{}, err
	}
	u.pendingCost = u.s.ledger(obs).Charge(sol.PowerKW, sol.DelayCost, 0).TotalUSD
	return sim.Config{Speed: sol.Speed, Active: sol.Active}, nil
}

// Observe implements sim.Policy: commits the per-slot cost candidate
// speculated in Decide.
func (u *Unaware) Observe(sim.Feedback) {
	if u.pendingCost < u.MinSlotCost {
		u.MinSlotCost = u.pendingCost
	}
}

var _ sim.Policy = (*Unaware)(nil)

// OPT is the offline optimum via Lagrangian dual bisection.
type OPT struct {
	s   solver
	eta float64
	// Exact is false when the budget is below the minimum achievable usage
	// and OPT saturates at its most electricity-averse decisions.
	Exact bool
}

// etaCap bounds the dual search; beyond it the per-slot solves are already
// electricity-only.
const etaCap = 1e7

// NewOPT plans the offline optimum for the scenario's budget. It runs
// O(log) full-horizon sweeps, so construction costs a few seconds at
// year scale.
func NewOPT(sc *sim.Scenario) (*OPT, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	o := &OPT{s: solver{sc: sc}, Exact: true}
	budget := sc.Portfolio.BudgetKWh(sc.Slots)
	total := func(eta float64) float64 {
		var sum float64
		for t := 0; t < sc.Slots; t++ {
			sum += o.s.gridAt(o.s.trueObs(t), eta)
		}
		return sum
	}
	g0 := total(0)
	if g0 <= budget {
		o.eta = 0
		return o, nil
	}
	// The bracket's endpoint sums seed the bisection, so it sweeps the
	// horizon at neither again.
	hi := 1.0
	gHi := total(hi)
	for gHi > budget {
		hi *= 4
		if hi > etaCap {
			o.eta = etaCap
			o.Exact = false
			return o, nil
		}
		gHi = total(hi)
	}
	o.eta = numopt.BisectMonotoneFrom(total, budget, 0, hi, g0, gHi, hi*1e-7, 50)
	// Round η up until the budget is actually met (bisection can land a
	// hair below target on a decreasing step function).
	for i := 0; i < 20 && total(o.eta) > budget; i++ {
		o.eta *= 1.02
	}
	return o, nil
}

// Eta exposes the dual price on the carbon budget.
func (o *OPT) Eta() float64 { return o.eta }

// Name implements sim.Policy.
func (o *OPT) Name() string { return "opt-offline" }

// Decide implements sim.Policy. OPT is an oracle: it uses the true
// environment regardless of the scenario's overestimation factor.
func (o *OPT) Decide(obs sim.Observation) (sim.Config, error) {
	sol, err := o.s.solve(o.s.trueObs(obs.Slot), o.eta)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{Speed: sol.Speed, Active: sol.Active}, nil
}

// Observe implements sim.Policy.
func (o *OPT) Observe(sim.Feedback) {}

var _ sim.Policy = (*OPT)(nil)

// PerfectHP is the 48-hour prediction heuristic of §5.2.2.
type PerfectHP struct {
	s          solver
	frameHours int
	budgets    []float64 // per-slot caps b_t
}

// NewPerfectHP plans the hourly budget allocation from perfect workload
// predictions (the paper's setting). frameHours is the prediction window
// (the paper uses 48).
func NewPerfectHP(sc *sim.Scenario, frameHours int) (*PerfectHP, error) {
	return NewPerfectHPWithForecast(sc, frameHours, sc.Workload)
}

// NewPerfectHPWithForecast is PerfectHP with an arbitrary workload
// forecast driving the budget allocation — the caps are proportional to
// *forecast* hourly workloads while the per-slot cost minimization still
// serves the true arrivals. With forecast == the true workload it is
// exactly the paper's PerfectHP; with package predict's forecasters it
// measures how prediction error erodes the heuristic.
func NewPerfectHPWithForecast(sc *sim.Scenario, frameHours int, forecast *trace.Trace) (*PerfectHP, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if frameHours <= 0 {
		return nil, errors.New("baseline: frameHours must be positive")
	}
	if forecast == nil || forecast.Len() < sc.Slots {
		return nil, errors.New("baseline: forecast missing or shorter than horizon")
	}
	p := &PerfectHP{s: solver{sc: sc}, frameHours: frameHours}
	frames := (sc.Slots + frameHours - 1) / frameHours
	p.budgets = make([]float64, sc.Slots)
	alpha := sc.Portfolio.Alpha
	recShare := sc.Portfolio.RECsKWh / float64(frames)
	for f := 0; f < frames; f++ {
		lo := f * frameHours
		hi := lo + frameHours
		if hi > sc.Slots {
			hi = sc.Slots
		}
		frameBudget := alpha * (stats.Sum(sc.Portfolio.OffsiteKWh.Values[lo:hi]) + recShare)
		lambdaSum := stats.Sum(forecast.Values[lo:hi])
		for t := lo; t < hi; t++ {
			if lambdaSum > 0 {
				p.budgets[t] = frameBudget * forecast.Values[t] / lambdaSum
			} else {
				p.budgets[t] = frameBudget / float64(hi-lo)
			}
		}
	}
	return p, nil
}

// Name implements sim.Policy.
func (p *PerfectHP) Name() string { return fmt.Sprintf("perfect-hp-%dh", p.frameHours) }

// Budget exposes the planned hourly cap for slot t.
func (p *PerfectHP) Budget(t int) float64 { return p.budgets[t] }

// Decide implements sim.Policy: minimize cost subject to the hourly carbon
// cap, dropping the cap when infeasible (the paper's rule).
func (p *PerfectHP) Decide(obs sim.Observation) (sim.Config, error) {
	cap := p.budgets[obs.Slot]
	free, err := p.s.solve(obs, 0)
	if err != nil {
		return sim.Config{}, err
	}
	if free.GridKWh <= cap {
		return sim.Config{Speed: free.Speed, Active: free.Active}, nil
	}
	// Tighten η until the cap is met; if even η → ∞ cannot meet it, the
	// paper says to ignore the cap for this hour.
	if p.s.gridAt(obs, etaCap) > cap {
		return sim.Config{Speed: free.Speed, Active: free.Active}, nil
	}
	// The free solve is g(0) and the bracket ends on g(hi), so the
	// bisection probes neither endpoint again.
	hi := 1.0
	gHi := p.s.gridAt(obs, hi)
	for gHi > cap && hi < etaCap {
		hi *= 4
		gHi = p.s.gridAt(obs, hi)
	}
	eta := numopt.BisectMonotoneFrom(func(x float64) float64 {
		return p.s.gridAt(obs, x)
	}, cap, 0, hi, free.GridKWh, gHi, hi*1e-6, 40)
	// Round η up until the cap is met, solving once per η: the last solve
	// is the decision.
	sol, err := p.s.solve(obs, eta)
	for i := 0; i < 20 && gridOf(sol, err) > cap; i++ {
		eta = eta*1.05 + 1e-9
		sol, err = p.s.solve(obs, eta)
	}
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{Speed: sol.Speed, Active: sol.Active}, nil
}

// Observe implements sim.Policy.
func (p *PerfectHP) Observe(sim.Feedback) {}

var _ sim.Policy = (*PerfectHP)(nil)

// Lookahead is the T-step lookahead benchmark P2: within each frame of T
// slots it enforces the frame budget α·(Σ_frame f + Z/R) via a per-frame
// dual price.
type Lookahead struct {
	s      solver
	t      int
	etas   []float64 // per-frame dual prices
	optima []float64 // per-frame average costs G_r*
}

// NewLookahead plans the per-frame duals. T must divide the horizon.
func NewLookahead(sc *sim.Scenario, T int) (*Lookahead, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if T <= 0 || sc.Slots%T != 0 {
		return nil, fmt.Errorf("baseline: T = %d must divide horizon %d", T, sc.Slots)
	}
	l := &Lookahead{s: solver{sc: sc}, t: T}
	frames := sc.Slots / T
	alpha := sc.Portfolio.Alpha
	recShare := sc.Portfolio.RECsKWh / float64(frames)
	l.etas = make([]float64, frames)
	l.optima = make([]float64, frames)
	for f := 0; f < frames; f++ {
		lo, hi := f*T, (f+1)*T
		budget := alpha * (stats.Sum(sc.Portfolio.OffsiteKWh.Values[lo:hi]) + recShare)
		total := func(eta float64) float64 {
			var sum float64
			for t := lo; t < hi; t++ {
				sum += l.s.gridAt(l.s.trueObs(t), eta)
			}
			return sum
		}
		eta := 0.0
		if g0 := total(0); g0 > budget {
			hiEta := 1.0
			gHi := total(hiEta)
			for gHi > budget && hiEta < etaCap {
				hiEta *= 4
				gHi = total(hiEta)
			}
			eta = numopt.BisectMonotoneFrom(total, budget, 0, hiEta, g0, gHi, hiEta*1e-7, 50)
			for i := 0; i < 20 && total(eta) > budget; i++ {
				eta *= 1.02
			}
		}
		l.etas[f] = eta
		var cost float64
		for t := lo; t < hi; t++ {
			obs := l.s.trueObs(t)
			sol, err := l.s.solve(obs, eta)
			if err != nil {
				return nil, err
			}
			cost += l.s.ledger(obs).Charge(sol.PowerKW, sol.DelayCost, 0).TotalUSD
		}
		l.optima[f] = cost / float64(T)
	}
	return l, nil
}

// FrameOptima returns the per-frame average costs G_r* used in Theorem 2.
func (l *Lookahead) FrameOptima() []float64 { return append([]float64(nil), l.optima...) }

// Name implements sim.Policy.
func (l *Lookahead) Name() string { return fmt.Sprintf("lookahead-T%d", l.t) }

// Decide implements sim.Policy (oracle: true environment).
func (l *Lookahead) Decide(obs sim.Observation) (sim.Config, error) {
	sol, err := l.s.solve(l.s.trueObs(obs.Slot), l.etas[obs.Slot/l.t])
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{Speed: sol.Speed, Active: sol.Active}, nil
}

// Observe implements sim.Policy.
func (l *Lookahead) Observe(sim.Feedback) {}

var _ sim.Policy = (*Lookahead)(nil)
