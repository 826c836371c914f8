// Package p3 defines the interface for solvers of the paper's per-slot
// optimization P3 (Eq. 16) and provides two reference solvers:
//
//   - Enumerate, an exhaustive oracle over all speed vectors, exact but
//     exponential — the correctness yardstick for everything else;
//   - HomogeneousSolver, a fast exact solver for fleets of identical servers
//     that exploits symmetry: at the optimum of a symmetric convex objective,
//     all active servers run at one speed with equal load, so it suffices to
//     enumerate the speed level and search the active-server count (the
//     objective is convex in the count). This is the solver that drives the
//     year-long simulation sweeps; GSD (package gsd) is the paper's
//     distributed solver and is cross-validated against both.
package p3

import (
	"errors"
	"math"

	"repro/internal/dcmodel"
	"repro/internal/loadbalance"
	"repro/internal/numopt"
)

// Solver solves one slot's P3 instance: choose speeds and load split
// minimizing We·[p − r]^+ + Wd·d.
type Solver interface {
	Solve(p *dcmodel.SlotProblem) (dcmodel.Solution, error)
}

// ErrTooLarge is returned by Enumerate when the search space exceeds its
// hard cap.
var ErrTooLarge = errors.New("p3: instance too large for exhaustive enumeration")

// ErrInfeasible is returned when no speed vector can carry the load.
var ErrInfeasible = errors.New("p3: no feasible configuration")

// ErrInvalid is returned for malformed problem instances — a non-positive
// fleet, a negative or NaN load. It is a caller bug, deliberately distinct
// from ErrInfeasible's "no configuration can carry this load", which
// solvers legitimately probe for (the geo split treats infeasibility as
// "site full"; it must not mistake a corrupted instance for that).
var ErrInvalid = errors.New("p3: invalid problem instance")

// EnumerateLimit caps the number of speed vectors Enumerate will visit.
const EnumerateLimit = 2_000_000

// Enumerate exhaustively searches every speed vector, solving the optimal
// load split for each feasible one, and returns the global optimum of P3.
// Intended for small test instances only.
func Enumerate(p *dcmodel.SlotProblem) (dcmodel.Solution, error) {
	n := len(p.Cluster.Groups)
	total := 1
	for g := 0; g < n; g++ {
		total *= p.Cluster.Groups[g].Type.NumSpeeds() + 1
		if total > EnumerateLimit {
			return dcmodel.Solution{}, ErrTooLarge
		}
	}
	speeds := make([]int, n)
	best := dcmodel.Solution{Value: math.Inf(1)}
	found := false
	for {
		if p.Feasible(speeds) {
			if sol, err := loadbalance.Solve(p, speeds); err == nil && sol.Value < best.Value {
				best = sol.Clone()
				found = true
			}
		}
		// Odometer increment over the mixed-radix speed vector.
		i := 0
		for ; i < n; i++ {
			speeds[i]++
			if speeds[i] <= p.Cluster.Groups[i].Type.NumSpeeds() {
				break
			}
			speeds[i] = 0
		}
		if i == n {
			break
		}
	}
	if !found {
		return dcmodel.Solution{}, ErrInfeasible
	}
	return best, nil
}

// HomogeneousProblem is the server-granular form of P3 for a fleet of N
// identical servers. It avoids group vectors entirely: the decision is a
// speed level and an active-server count.
type HomogeneousProblem struct {
	Type      dcmodel.ServerType
	N         int     // fleet size
	Gamma     float64 // γ utilization cap
	PUE       float64
	LambdaRPS float64
	We        float64 // weight on grid energy [p − r]^+
	Wd        float64 // weight on delay cost
	OnsiteKW  float64 // r(t)

	// SwitchWeight is the objective penalty per server toggled on or off
	// relative to PrevActive (0 disables; used for the Fig. 5(d) study).
	SwitchWeight float64
	PrevActive   int

	// GridCostFn, when non-nil, replaces the linear grid term We·[p − r]^+
	// with an arbitrary convex non-decreasing cost of grid energy — the
	// §2.1 nonlinear-tariff extension. It receives [p − r]^+ in kWh.
	GridCostFn func(gridKWh float64) float64

	// MaxPowerKW caps facility power (the §3.1 peak-power constraint);
	// 0 disables.
	MaxPowerKW float64
	// MaxDelayCost caps the total delay cost d (the §3.1 maximum-delay
	// constraint); 0 disables.
	MaxDelayCost float64
}

// HomogeneousSolution is the optimum of a HomogeneousProblem.
type HomogeneousSolution struct {
	Speed  int     // chosen speed index (1..K); 0 when the fleet is off
	Active int     // number of active servers m
	Value  float64 // objective value including the switching penalty

	PowerKW   float64 // facility power p
	GridKWh   float64 // [p − r]^+
	DelayCost float64 // d
}

// speedKernel is the homogeneous objective compiled for one speed level k:
// it holds every operand that does not depend on the active-server count m,
// so a probe of the integer search pays only the arithmetic in m. It is the
// single formula of the objective; objective and Solve's probes both go
// through eval.
type speedKernel struct {
	hp *HomogeneousProblem
	x  float64 // Rate(k)
	gx float64 // γ·x, the per-server load cap
	ck float64 // ComputingKW(k)·λ/Rate(k), the fleet's computing power
}

// kernel compiles the objective for speed level k ≥ 1; speed 0 serves only
// to evaluate the all-off count m = 0.
func (hp *HomogeneousProblem) kernel(k int) speedKernel {
	x := hp.Type.Rate(k)
	// Evaluated in the order Group.PowerKW evaluates p_c(x_k)·L/x_k.
	return speedKernel{hp: hp, x: x, gx: hp.Gamma * x,
		ck: hp.Type.ComputingKW(k) * hp.LambdaRPS / x}
}

// eval returns the objective value for m active servers (m = 0 is the
// fleet switched off), with the facility power p, the grid energy [p − r]^+
// and the delay cost d it was built from. Infeasible counts return +Inf,
// with the operands computed before the failing test (zero for the γ cap).
func (kn *speedKernel) eval(m int) (v, power, grid, delay float64) {
	hp := kn.hp
	lambda := hp.LambdaRPS
	if m == 0 {
		if lambda > 0 {
			return math.Inf(1), 0, 0, 0
		}
		return hp.switchPenalty(0), 0, 0, 0
	}
	fm := float64(m)
	if lambda/fm > kn.gx {
		return math.Inf(1), 0, 0, 0
	}
	power = hp.PUE * (fm*hp.Type.StaticKW + kn.ck)
	// [p − r]^+ bit for bit as math.Max(0, ·) computes it, without the
	// call: +0 for every non-positive difference (−0 included) and
	// math.NaN() for a NaN one.
	if d := power - hp.OnsiteKW; d > 0 {
		grid = d
	} else if d != d {
		grid = math.NaN()
	}
	// The M/G/1/PS delay m·λ/(m·x − λ), as Group.DelayCost computes it.
	if !(lambda <= 0) {
		if agg := fm * kn.x; lambda >= agg {
			delay = math.Inf(1)
		} else {
			delay = fm * lambda / (agg - lambda)
		}
	}
	if hp.MaxPowerKW > 0 && power > hp.MaxPowerKW*(1+1e-12) {
		return math.Inf(1), power, grid, delay
	}
	if hp.MaxDelayCost > 0 && delay > hp.MaxDelayCost*(1+1e-12) {
		return math.Inf(1), power, grid, delay
	}
	g := hp.We * grid
	if hp.GridCostFn != nil {
		g = hp.GridCostFn(grid)
	}
	return g + hp.Wd*delay + hp.switchPenalty(m), power, grid, delay
}

// objective evaluates the homogeneous objective for m active servers at
// speed k. Infeasible pairs return +Inf.
func (hp *HomogeneousProblem) objective(k, m int) (float64, HomogeneousSolution) {
	kn := hp.kernel(k)
	v, power, grid, delay := kn.eval(m)
	return v, HomogeneousSolution{Speed: k, Active: m, Value: v,
		PowerKW: power, GridKWh: grid, DelayCost: delay}
}

// countBounds returns the feasible active-server interval [lo, hi] at speed
// index k under the γ cap and the optional peak-power and max-delay
// constraints. ok is false when the interval is empty.
func (hp *HomogeneousProblem) countBounds(k int) (lo, hi int, ok bool) {
	x := hp.Type.Rate(k)
	lo, hi = 1, hp.N
	if hp.LambdaRPS > 0 {
		lo = int(math.Ceil(hp.LambdaRPS / (hp.Gamma * x)))
		if lo < 1 {
			lo = 1
		}
	}
	// Peak power: PUE·(m·p_s + p_c·λ/x) ≤ Pmax — power increases in m.
	if hp.MaxPowerKW > 0 {
		budget := hp.MaxPowerKW/hp.PUE - hp.Type.ComputingKW(k)*hp.LambdaRPS/x
		if hp.Type.StaticKW > 0 {
			m := int(math.Floor(budget / hp.Type.StaticKW * (1 + 1e-12)))
			if m < hi {
				hi = m
			}
		} else if budget < 0 {
			return 0, 0, false
		}
	}
	// Max delay: λ·m/(m·x − λ) ≤ D — delay decreases in m, with limit λ/x.
	if hp.MaxDelayCost > 0 && hp.LambdaRPS > 0 {
		d := hp.MaxDelayCost
		if d*x <= hp.LambdaRPS {
			return 0, 0, false // even infinitely many servers exceed the cap
		}
		m := int(math.Ceil(d * hp.LambdaRPS / (d*x - hp.LambdaRPS) * (1 - 1e-12)))
		if m > lo {
			lo = m
		}
	}
	return lo, hi, lo <= hi
}

func (hp *HomogeneousProblem) switchPenalty(m int) float64 {
	if hp.SwitchWeight == 0 {
		return 0
	}
	return hp.SwitchWeight * math.Abs(float64(m-hp.PrevActive))
}

// Solve finds the optimal (speed, active count). For each speed level the
// objective is convex in the count (affine-with-kink electricity + convex
// decreasing delay + convex switching penalty), so an integer ternary search
// with a guard sweep is exact.
func (hp *HomogeneousProblem) Solve() (HomogeneousSolution, error) {
	if hp.N <= 0 || hp.LambdaRPS < 0 || math.IsNaN(hp.LambdaRPS) {
		return HomogeneousSolution{}, ErrInvalid
	}
	if hp.LambdaRPS == 0 {
		// With no load the delay term vanishes; all-off is optimal up to the
		// switching penalty, which is itself minimized near PrevActive — but
		// keeping idle servers on costs static power, so compare both.
		offVal, off := hp.objective(0, 0)
		best := off
		bestVal := offVal
		for k := 1; k <= hp.Type.NumSpeeds(); k++ {
			if v, s := hp.objective(k, hp.PrevActive); v < bestVal {
				bestVal, best = v, s
			}
		}
		return best, nil
	}
	best := HomogeneousSolution{}
	bestVal := math.Inf(1)
	for k := 1; k <= hp.Type.NumSpeeds(); k++ {
		minM, maxM, ok := hp.countBounds(k)
		if !ok || minM > hp.N {
			continue
		}
		if maxM > hp.N {
			maxM = hp.N
		}
		kn := hp.kernel(k)
		m, val := numopt.MinimizeInt(func(m int) float64 {
			v, _, _, _ := kn.eval(m)
			return v
		}, minM, maxM, 3)
		if val < bestVal {
			bestVal, best = hp.objective(k, m)
		}
	}
	if math.IsInf(bestVal, 1) {
		return HomogeneousSolution{}, ErrInfeasible
	}
	return best, nil
}

// HomogeneousSolver adapts HomogeneousProblem to the group-level Solver
// interface for clusters whose groups all share one ServerType. The returned
// solution activates whole groups in order and places the remainder in a
// final partially-loaded group at the chosen speed; the tiny inefficiency of
// the partial group's idle-but-on servers is charged honestly in Value.
type HomogeneousSolver struct {
	// SwitchWeight and PrevActive mirror HomogeneousProblem.
	SwitchWeight float64
	PrevActive   int
}

// Solve implements Solver for same-type clusters.
func (hs *HomogeneousSolver) Solve(p *dcmodel.SlotProblem) (dcmodel.Solution, error) {
	groups := p.Cluster.Groups
	st := groups[0].Type
	totalN := 0
	for i := range groups {
		if groups[i].Type.Name != st.Name {
			return dcmodel.Solution{}, errors.New("p3: HomogeneousSolver requires a single server type")
		}
		totalN += groups[i].N
	}
	hp := &HomogeneousProblem{
		Type: st, N: totalN,
		Gamma: p.Cluster.Gamma, PUE: p.Cluster.PUE,
		LambdaRPS: p.LambdaRPS, We: p.We, Wd: p.Wd, OnsiteKW: p.OnsiteKW,
		SwitchWeight: hs.SwitchWeight, PrevActive: hs.PrevActive,
	}
	hsol, err := hp.Solve()
	if err != nil {
		return dcmodel.Solution{}, err
	}
	speeds := make([]int, len(groups))
	load := make([]float64, len(groups))
	if hsol.Active > 0 {
		perServer := p.LambdaRPS / float64(hsol.Active)
		remaining := hsol.Active
		for i := range groups {
			if remaining <= 0 {
				break
			}
			take := groups[i].N
			if take > remaining {
				take = remaining
			}
			speeds[i] = hsol.Speed
			load[i] = perServer * float64(take)
			remaining -= take
		}
	}
	return dcmodel.Solution{
		Speeds: speeds,
		Load:   load,
		Value:  p.Objective(speeds, load),
	}, nil
}

var _ Solver = (*HomogeneousSolver)(nil)
