package dcmodel

import (
	"fmt"
	"math"
)

// Charge evaluates Eqs. (3)–(5) for a configuration through the shared
// Ledger kernel, plus the Fig. 5(d) toggling charge for a change of
// activeDelta active servers against the previous slot — the
// heterogeneous counterpart of the sim engine's full slot charge.
// Infeasible loads (at or beyond a group's aggregate rate) yield +Inf
// delay and total.
func (c *Cluster) Charge(l *Ledger, speeds []int, load []float64, activeDelta int) SlotCharge {
	return l.Charge(c.FacilityPowerKW(speeds, load), c.DelayCost(speeds, load), activeDelta)
}

// ActiveServers returns the number of servers in groups running at a
// positive speed — the heterogeneous analogue of the homogeneous
// deployment's active-server count, and the quantity switching cost is
// charged on.
func (c *Cluster) ActiveServers(speeds []int) int {
	n := 0
	for g := range c.Groups {
		if g < len(speeds) && speeds[g] > 0 {
			n += c.Groups[g].N
		}
	}
	return n
}

// SlotProblem is the per-slot optimization every algorithm in this
// repository reduces to:
//
//	min over (speeds, load):  We·[p(λ,x) − r]^+ + Wd·d(λ,x)
//	s.t. Σ_g load_g = LambdaRPS, 0 ≤ load_g ≤ γ·n_g·x_g, speeds discrete.
//
// COCA's P3 (Eq. 16) uses We = V·w(t) + q(t) and Wd = V·β. The plain cost
// g of Eq. (5) is We = w(t), Wd = β. The offline OPT dual uses
// We = w(t) + η, Wd = β. PerfectHP's capped subproblem bisects an extra
// penalty into We.
type SlotProblem struct {
	Cluster   *Cluster
	LambdaRPS float64 // λ(t): total arrivals to place
	We        float64 // weight on grid energy [p − r]^+
	Wd        float64 // weight on delay cost d
	OnsiteKW  float64 // r(t)
}

// P3Weights builds the COCA P3 weights of Eq. (16) from the control
// parameter V, the carbon-deficit queue length q, the electricity price w
// and the delay weight β.
func P3Weights(v, q, priceUSDPerKWh, beta float64) (we, wd float64) {
	return v*priceUSDPerKWh + q, v * beta
}

// CheckBeta reports whether a delay weight β can price delay: finite and
// non-negative. A negative, NaN or infinite β makes every P3 weight
// Wd = V·β invalid. The error carries no package prefix, so each caller
// adds its own.
func CheckBeta(beta float64) error {
	if !(beta >= 0 && beta <= math.MaxFloat64) {
		return fmt.Errorf("beta %v must be finite and non-negative", beta)
	}
	return nil
}

// CheckSlotExtensions reports whether a Ledger's slot duration in hours
// (0 meaning the paper's 1-hour slots) and per-toggle switching cost in kWh
// can be charged: both finite and non-negative. An infinite or NaN one
// turns a slot's charge, and from it the deficit queue, NaN or makes every
// later P3 infeasible. The error carries no package prefix, so each caller
// adds its own.
func CheckSlotExtensions(slotHours, switchCostKWh float64) error {
	if !(slotHours >= 0 && slotHours <= math.MaxFloat64) {
		return fmt.Errorf("slot duration %v hours must be finite and non-negative", slotHours)
	}
	if !(switchCostKWh >= 0 && switchCostKWh <= math.MaxFloat64) {
		return fmt.Errorf("switching cost %v kWh must be finite and non-negative", switchCostKWh)
	}
	return nil
}

// Validate reports whether the problem is well formed and feasible in
// aggregate (λ must not exceed the cluster's top-speed γ-capacity).
func (p *SlotProblem) Validate() error {
	if p.Cluster == nil {
		return fmt.Errorf("dcmodel: SlotProblem has nil cluster")
	}
	if err := p.Cluster.Validate(); err != nil {
		return err
	}
	if err := p.CheckScalars(); err != nil {
		return err
	}
	top := make([]int, len(p.Cluster.Groups))
	for g := range top {
		top[g] = p.Cluster.Groups[g].Type.NumSpeeds()
	}
	if p.LambdaRPS > p.Cluster.UsableCapacityRPS(top)*(1+1e-12) {
		return fmt.Errorf("dcmodel: arrival rate %v exceeds usable capacity %v",
			p.LambdaRPS, p.Cluster.UsableCapacityRPS(top))
	}
	return nil
}

// CheckScalars reports whether the problem's scalars are usable: λ, We
// and Wd finite and ≥ 0, r(t) finite. It is O(1) and allocates only for
// the error, so per-slot hot paths (loadbalance.Instance.Reset) run it
// where the O(groups) Validate would be too dear. A NaN anywhere here
// would otherwise come back as a NaN objective or a near-empty split with
// no error.
func (p *SlotProblem) CheckScalars() error {
	if !(p.LambdaRPS >= 0) || math.IsInf(p.LambdaRPS, 1) {
		return fmt.Errorf("dcmodel: arrival rate %v is not finite and ≥ 0", p.LambdaRPS)
	}
	if !(p.We >= 0) || !(p.Wd >= 0) || math.IsInf(p.We, 1) || math.IsInf(p.Wd, 1) {
		return fmt.Errorf("dcmodel: weights We=%v Wd=%v are not finite and ≥ 0", p.We, p.Wd)
	}
	if math.IsNaN(p.OnsiteKW) || math.IsInf(p.OnsiteKW, 0) {
		return fmt.Errorf("dcmodel: on-site supply %v kW is not finite", p.OnsiteKW)
	}
	return nil
}

// Objective evaluates We·[p − r]^+ + Wd·d for a configuration. It returns
// +Inf for configurations whose delay is infinite.
func (p *SlotProblem) Objective(speeds []int, load []float64) float64 {
	pw := p.Cluster.FacilityPowerKW(speeds, load)
	grid := pw - p.OnsiteKW
	if grid < 0 {
		grid = 0
	}
	d := p.Cluster.DelayCost(speeds, load)
	return p.We*grid + p.Wd*d
}

// Feasible reports whether the speed vector can carry the problem's load
// under the γ cap (GSD's Algorithm 2 line 2 gate).
func (p *SlotProblem) Feasible(speeds []int) bool {
	return p.LambdaRPS <= p.Cluster.UsableCapacityRPS(speeds)*(1+1e-12)
}

// Solution is a solved slot configuration.
type Solution struct {
	Speeds []int
	Load   []float64
	Value  float64 // objective value We·[p−r]^+ + Wd·d
}

// Clone deep-copies the solution.
func (s Solution) Clone() Solution {
	out := Solution{Value: s.Value}
	out.Speeds = append([]int(nil), s.Speeds...)
	out.Load = append([]float64(nil), s.Load...)
	return out
}

// CopyFrom overwrites s with a deep copy of src, reusing s's backing arrays
// when they have capacity — the allocation-free counterpart of Clone for hot
// loops that shuttle solutions between preallocated buffers. Copying a
// solution onto itself is a no-op.
func (s *Solution) CopyFrom(src *Solution) {
	if s == src {
		return
	}
	s.Speeds = append(s.Speeds[:0], src.Speeds...)
	s.Load = append(s.Load[:0], src.Load...)
	s.Value = src.Value
}
