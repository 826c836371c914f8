package gsd

import (
	"repro/internal/dcmodel"
	"repro/internal/loadbalance"
	"repro/internal/stats"
)

// The distributed GSD engine realizes §4.2's description: every server
// group draws from its own randomness. Each round the groups "compete" for
// the update opportunity by drawing random timers (the paper's analogy to
// random channel access in wireless networks); the group whose timer fires
// first explores a random speed from its own speed set; the optimal load
// distribution for the exploration is negotiated with the dual-decomposition
// price protocol (loadbalance.Instance.SolveDistributedInto); and the first
// group draws the Gibbs acceptance. A coordinating node only relays the
// draws (the "semi-distributed" variant the paper allows), holding no
// decision authority. Failed groups never draw timers and stay off.

// agent is one live server group: its id, its number of positive speed
// levels and its private randomness. The agents are called in index order.
type agent struct {
	id     int
	speeds int
	rng    *stats.RNG
}

// SolveDistributed runs the distributed GSD engine. It runs Solve's step,
// whose load split the price protocol reproduces bit for bit, and so
// differs from Solve only in where its random draws come from.
func SolveDistributed(p *dcmodel.SlotProblem, opts Options) (Result, error) {
	return runFresh(newDistributedEngine(p, opts))
}

// newDistributedEngine is newEngine with one agent per live group.
func newDistributedEngine(p *dcmodel.SlotProblem, opts Options) (*engine, error) {
	if p.Wd <= 0 {
		// The price protocol cannot split load without a delay term.
		return nil, loadbalance.ErrNeedsDelayWeight
	}
	e, err := newEngine(p, opts)
	if err != nil {
		return nil, err
	}
	e.agents = make([]agent, len(e.alive))
	for i, g := range e.alive {
		e.agents[i] = agent{
			id:     g,
			speeds: p.Cluster.Groups[g].Type.NumSpeeds(),
			rng:    stats.NewRNG(opts.Seed ^ (0x9e3779b97f4a7c15 * uint64(g+1))),
		}
	}
	return e, nil
}
