// Package baseline implements the comparison algorithms of the paper's
// evaluation:
//
//   - Unaware — the carbon-unaware algorithm (§5.2.1): minimizes the
//     instantaneous cost g(t) every slot and ignores the budget entirely
//     (COCA's V → ∞ limit). Its yearly usage defines the reference against
//     which carbon budgets are sized.
//   - Lookahead — the T-step lookahead family P2 (§3.2): per-frame budget
//     constraints, providing the frame optima G_r* that appear in Theorem
//     2's bounds.
//   - OPT — the optimal offline algorithm (§5.2.4, Fig. 5): full knowledge
//     of the year, minimizes total cost subject to the yearly budget. It is
//     the T = J member of the Lookahead family, a Lookahead with one frame
//     spanning the horizon. With 8760 coupled slots the relaxation's
//     duality gap is negligible.
//   - PerfectHP — the prediction-based heuristic COCA is compared against
//     (§5.2.2): 48-hour frames, the frame's carbon budget (off-site
//     renewables plus the frame's REC share) allocated to hours in
//     proportion to perfectly predicted hourly workloads; each hour the
//     cost is minimized subject to the hourly cap, and the cap is dropped
//     whenever it is infeasible.
//
// Every budget, a frame's or an hour's, is met by Lagrangian duality: with
// a multiplier η on the budget the problem decouples into per-slot solves
// with electricity weight w(t) + η, and one search (dualSearch.price) moves
// η until the grid usage meets the budget (complementary slackness). One
// saturation rule holds for all three: a budget that no η up to etaCap
// meets stops at η = etaCap and is reported as not exact. PerfectHP checks
// the hour's cap at etaCap before searching and drops an infeasible cap.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numopt"
	"repro/internal/p3"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// solver wraps the homogeneous per-slot solve with an extra grid weight η:
// COCA's P3 at V = 1 and q = η, minimize (w+η)·[p − r]^+ + β·d.
type solver struct {
	sc *sim.Scenario
}

func (s solver) solve(obs sim.Observation, eta float64) (p3.HomogeneousSolution, error) {
	hp := s.sc.P3At(obs, 1, eta)
	return hp.Solve()
}

// trueObs builds the non-overestimated observation for slot t (oracles see
// the truth).
func (s solver) trueObs(t int) sim.Observation {
	obs := s.sc.Observe(t)
	obs.LambdaRPS = s.sc.Workload.Values[t]
	return obs
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
}

// NewUnaware builds the carbon-unaware policy for a scenario.
func NewUnaware(sc *sim.Scenario) *Unaware {
	return &Unaware{s: solver{sc: sc}}
}

// Name implements sim.Policy.
func (u *Unaware) Name() string { return "carbon-unaware" }

// Decide implements sim.Policy.
func (u *Unaware) Decide(obs sim.Observation) (sim.Config, error) {
	sol, err := u.s.solve(obs, 0)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{Speed: sol.Speed, Active: sol.Active}, nil
}

// Observe implements sim.Policy; the unaware policy keeps no state.
func (u *Unaware) Observe(sim.Feedback) {}

var _ sim.Policy = (*Unaware)(nil)

// etaCap bounds the dual search; beyond it the per-slot solves are already
// electricity-only.
const etaCap = 1e7

// dualSearch holds one baseline's constants for price: the bisection
// tolerance relative to the bracket's top, the bisection step limit, and
// the step that raises η when the bisection lands a hair short.
type dualSearch struct {
	relTol float64
	steps  int
	raise  func(eta float64) float64
}

var (
	// frameSearch plans Lookahead's (and so OPT's) frame duals.
	frameSearch = dualSearch{1e-7, 50, func(eta float64) float64 { return eta * 1.02 }}
	// hourSearch prices PerfectHP's hourly caps.
	hourSearch = dualSearch{1e-6, 40, func(eta float64) float64 { return eta*1.05 + 1e-9 }}
)

// price is the dual search: the η at which grid, the usage of the solves
// priced at w + η (non-increasing in η), meets budget; g0 = grid(0). It
// brackets η = 1, 4, 16, … until the budget holds or η reaches etaCap,
// bisects from the bracket's values, then raises η (at most 20 times)
// until the budget holds, as the bisection can land a hair below target
// on a decreasing step function. A budget the bracket never meets
// saturates at η = etaCap, reported as not exact. The caller's grid sees
// every probe, so it can keep the last one's solves.
func (d dualSearch) price(grid func(eta float64) float64, g0, budget float64) (eta float64, exact bool) {
	if g0 <= budget {
		return 0, true
	}
	hi := 1.0
	gHi := grid(hi)
	for gHi > budget && hi < etaCap {
		hi *= 4
		gHi = grid(hi)
	}
	if gHi > budget {
		return etaCap, false
	}
	eta = numopt.BisectMonotoneFrom(grid, budget, 0, hi, g0, gHi, hi*d.relTol, d.steps)
	for i := 0; i < 20 && grid(eta) > budget; i++ {
		eta = d.raise(eta)
	}
	return eta, true
}

// OPT is the offline optimum: the one-frame Lookahead, whose frame and
// budget are the whole horizon's.
type OPT struct {
	*Lookahead
	// Exact is false when no η meets the budget and OPT saturates at its
	// most electricity-averse decisions (η = etaCap).
	Exact bool
}

// NewOPT plans the offline optimum for the scenario's budget. It runs
// O(log) full-horizon sweeps, so construction costs a few seconds at
// year scale.
func NewOPT(sc *sim.Scenario) (*OPT, error) {
	l, err := NewLookahead(sc, sc.Slots)
	if err != nil {
		return nil, err
	}
	return &OPT{Lookahead: l, Exact: l.exact[0]}, nil
}

// Eta exposes the dual price on the carbon budget.
func (o *OPT) Eta() float64 { return o.etas[0] }

// Name implements sim.Policy.
func (o *OPT) Name() string { return "opt-offline" }

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
	// If even η = etaCap cannot meet the cap, the paper says to ignore
	// the cap for this hour.
	if free.GridKWh <= cap || p.s.gridAt(obs, etaCap) > cap {
		return sim.Config{Speed: free.Speed, Active: free.Active}, nil
	}
	// The decision is the solve at the final η, which is usually the
	// search's last probe.
	var (
		sol p3.HomogeneousSolution
		at  float64
	)
	eta, _ := hourSearch.price(func(x float64) float64 {
		at = x
		sol, err = p.s.solve(obs, x)
		return gridOf(sol, err)
	}, free.GridKWh, cap)
	if at != eta {
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
	exact  []bool    // false where no η met the frame budget
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
	l.exact = make([]bool, frames)
	l.optima = make([]float64, frames)
	for f := 0; f < frames; f++ {
		lo, hi := f*T, (f+1)*T
		budget := alpha * (stats.Sum(sc.Portfolio.OffsiteKWh.Values[lo:hi]) + recShare)
		// sweep solves the frame at η and keeps that probe's η, cost and
		// error, so G* needs no sweep of its own when the search's last
		// probe was at the final η.
		var (
			at, cost float64
			sweepErr error
		)
		sweep := func(eta float64) float64 {
			at, cost, sweepErr = eta, 0, nil
			var grid float64
			for t := lo; t < hi; t++ {
				obs := l.s.trueObs(t)
				sol, err := l.s.solve(obs, eta)
				if err != nil {
					sweepErr = err
					return math.Inf(1)
				}
				grid += sol.GridKWh
				led := l.s.sc.LedgerAt(t, 0)
				cost += led.Charge(sol.PowerKW, sol.DelayCost, 0).TotalUSD
			}
			return grid
		}
		eta, exact := frameSearch.price(sweep, sweep(0), budget)
		if at != eta {
			sweep(eta)
		}
		if sweepErr != nil {
			return nil, sweepErr
		}
		l.etas[f], l.exact[f], l.optima[f] = eta, exact, cost/float64(T)
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
