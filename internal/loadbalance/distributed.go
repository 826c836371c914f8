package loadbalance

import (
	"errors"

	"repro/internal/dcmodel"
)

// ErrNeedsDelayWeight is returned by SolveDistributedInto when Wd = 0: with
// no delay term the per-group response to a price is bang-bang and the
// price-only protocol cannot break ties; use the centralized SolveInto
// instead.
var ErrNeedsDelayWeight = errors.New("loadbalance: distributed solver requires Wd > 0")

// priceProtocol is the dual-decomposition price protocol the paper points
// to via refs [5] and [27], as a filler. It exposes only the
// numopt.WaterSystem methods of the instance's fillSystem, so
// numopt.WaterFillInto runs its per-item price search: the coordinator
// announces a price ν and every server group answers from nothing but its
// own parameters, in index order. Every announcement asks the groups from
// the first on, so a round begins whenever group 0 is asked, and the last
// announcement is the price the fill allocates at.
type priceProtocol struct {
	sys    *fillSystem
	rounds int // prices broadcast since the split began
}

func (p *priceProtocol) Items() int                     { return p.sys.Items() }
func (p *priceProtocol) Cap(i int) float64              { return p.sys.Cap(i) }
func (p *priceProtocol) Deriv(i int, v float64) float64 { return p.sys.Deriv(i, v) }
func (p *priceProtocol) Alloc(i int, nu float64) float64 {
	if i == 0 {
		p.rounds++
		p.sys.nu = nu
	}
	return p.sys.Alloc(i, nu)
}

func (p *priceProtocol) fillInto(dst []float64, omega float64) ([]float64, error) {
	return p.sys.in.waterFill(p, dst, omega)
}

// SolveDistributedInto is SolveInto through the price protocol: the same
// regime analysis on the [·]^+ kink, with every water-fill a per-group
// price search instead of the class-level one. The two searches take the
// same decisions, so dst receives SolveInto's loads and objective bit for
// bit. It reports the prices broadcast (bracket, bisection and the final
// announcement, summed over every electricity weight the regime analysis
// tried): the message cost a real deployment would pay for the split.
func (in *Instance) SolveDistributedInto(dst *dcmodel.Solution) (rounds int, err error) {
	rounds, _, err = in.SplitDistributed()
	if err == nil {
		in.WriteSplit(dst)
	}
	return rounds, err
}

// SplitDistributed is SolveDistributedInto without the copy out, as Split
// is SolveInto's: it returns the prices broadcast and the split's value,
// and WriteSplit copies the loads out.
func (in *Instance) SplitDistributed() (rounds int, value float64, err error) {
	if in.prob.Wd <= 0 {
		return 0, 0, ErrNeedsDelayWeight
	}
	in.proto = priceProtocol{sys: &in.sys}
	value, err = in.splitWith(&in.proto)
	return in.proto.rounds, value, err
}
