package loadbalance

import (
	"errors"
	"math"

	"repro/internal/dcmodel"
)

// ErrNeedsDelayWeight is returned by SolveDistributed when Wd = 0: with no
// delay term the per-group response to a price is bang-bang and the
// price-only protocol cannot break ties; use the centralized Solve instead.
var ErrNeedsDelayWeight = errors.New("loadbalance: distributed solver requires Wd > 0")

// distCoordinator drives bisection on the dual price by broadcasting
// (ω, ν) price signals to the server groups and aggregating their replies.
// Each group is an autonomous agent: it answers a price query from nothing
// but its own parameters, mirroring the dual-decomposition structure the
// paper references ([5], [27]). A round queries the agents in index order
// and sums their replies in that same order.
type distCoordinator struct {
	in     *Instance
	loads  []float64 // per-agent reply: load accepted at the announced price
	rounds int       // broadcast rounds executed (the protocol's message cost)
}

// round broadcasts one (ω, ν) price and gathers every agent's response into
// the coordinator's reply slots, returning their agent-index-ordered sum.
func (d *distCoordinator) round(omega, nu float64) float64 {
	d.rounds++
	var s float64
	for agent := range d.loads {
		d.loads[agent] = d.in.alloc(agent, omega, nu)
		s += d.loads[agent]
	}
	return s
}

// fillInto performs the distributed water-filling for a fixed electricity
// weight: geometric bracket expansion on ν followed by bisection, each step
// one broadcast round. It implements the filler interface solveWith drives;
// dst is reused when large enough.
func (d *distCoordinator) fillInto(dst []float64, omega float64) ([]float64, error) {
	n := len(d.in.gIdx)
	loads := dst
	if cap(loads) < n {
		loads = make([]float64, n)
	}
	loads = loads[:n]
	target := d.in.prob.LambdaRPS
	if target == 0 {
		for i := range loads {
			loads[i] = 0
		}
		return loads, nil
	}
	nuLo, nuHi := 0.0, 1.0
	for iter := 0; iter < 200; iter++ {
		if d.round(omega, nuHi) >= target {
			break
		}
		nuLo = nuHi
		nuHi *= 2
	}
	solved := false
	for iter := 0; iter < 200 && nuHi-nuLo > 1e-12*(1+nuHi); iter++ {
		mid := nuLo + (nuHi-nuLo)/2
		solved = true
		if d.round(omega, mid) < target {
			nuLo = mid
		} else {
			nuHi = mid
		}
	}
	if !solved {
		d.round(omega, nuHi)
	}
	var got float64
	for i, l := range d.loads {
		loads[i] = l
		got += l
	}
	// Repair the bisection residual against the agents' γ-cap headroom.
	resid := target - got
	for pass := 0; pass < 4 && math.Abs(resid) > waterFillTol; pass++ {
		for i := range loads {
			if resid > 0 {
				delta := math.Min(d.in.gCap[i]-loads[i], resid)
				loads[i] += delta
				resid -= delta
			} else {
				delta := math.Min(loads[i], -resid)
				loads[i] -= delta
				resid += delta
			}
			if math.Abs(resid) <= waterFillTol {
				break
			}
		}
	}
	if math.Abs(resid) > 1e-3 {
		return nil, ErrInfeasible
	}
	return loads, nil
}

// SolveDistributed computes the same optimum as Solve but via the
// dual-decomposition price protocol: every server group answers price
// broadcasts from its own parameters only. The regime analysis on the [·]^+
// kink is identical to the centralized path.
func SolveDistributed(p *dcmodel.SlotProblem, speeds []int) (dcmodel.Solution, error) {
	sol, _, err := SolveDistributedCounted(p, speeds)
	return sol, err
}

// SolveDistributedCounted is SolveDistributed, additionally reporting the
// number of price broadcast rounds the dual protocol spent (bracket
// expansion plus bisection, summed over every ω the outer search tried) —
// the message cost a real deployment would pay per load split.
func SolveDistributedCounted(p *dcmodel.SlotProblem, speeds []int) (dcmodel.Solution, int, error) {
	if p.Wd <= 0 {
		return dcmodel.Solution{}, 0, ErrNeedsDelayWeight
	}
	in, err := NewInstance(p, speeds)
	if err != nil {
		return dcmodel.Solution{}, 0, err
	}
	d := &distCoordinator{in: in, loads: make([]float64, len(in.gIdx))}
	loads, err := in.solveWith(d)
	if err != nil {
		return dcmodel.Solution{}, d.rounds, err
	}
	full := in.expandInto(nil, loads)
	return dcmodel.Solution{
		Speeds: append([]int(nil), speeds...),
		Load:   full,
		Value:  p.Objective(speeds, full),
	}, d.rounds, nil
}
