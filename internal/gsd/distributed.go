package gsd

import (
	"sync"

	"repro/internal/dcmodel"
	"repro/internal/loadbalance"
	"repro/internal/stats"
	"repro/internal/telemetry/span"
)

// The distributed GSD engine realizes §4.2's description literally: every
// server group runs as an autonomous goroutine with private randomness.
// Each round the groups "compete" for the update opportunity by drawing
// random timers (the paper's analogy to random channel access in wireless
// networks); the group whose timer fires first explores a random speed from
// its own speed set; the optimal load distribution for the exploration is
// negotiated with the dual-decomposition price protocol
// (loadbalance.SolveDistributed); and the winning group samples the Gibbs
// acceptance itself. A coordinating node only relays messages
// (the "semi-distributed" variant the paper allows), holding no decision
// authority. Failed groups never draw timers and stay off.

// agentMsg is a request from the coordinator to one agent goroutine.
type agentMsg struct {
	kind  agentMsgKind
	delta float64 // temperature (acceptDecide)
	gBest float64 // incumbent objective (acceptDecide)
	gExpl float64 // exploration objective (acceptDecide)
	reply chan<- agentReply
}

type agentMsgKind int

const (
	drawTimer agentMsgKind = iota
	proposeSpeed
	acceptDecide
)

type agentReply struct {
	id     int
	timer  float64
	speed  int
	accept bool
}

// distAgent is the per-group autonomous state.
type distAgent struct {
	id     int
	speeds int // number of positive speed levels
	rng    *stats.RNG
	inbox  chan agentMsg
}

func (a *distAgent) loop() {
	for m := range a.inbox {
		switch m.kind {
		case drawTimer:
			m.reply <- agentReply{id: a.id, timer: a.rng.Float64()}
		case proposeSpeed:
			m.reply <- agentReply{id: a.id, speed: a.rng.IntN(a.speeds + 1)}
		case acceptDecide:
			u := acceptProb(m.delta, m.gExpl, m.gBest)
			m.reply <- agentReply{id: a.id, accept: a.rng.Bernoulli(u)}
		}
	}
}

// SolveDistributed runs GSD as a true message-passing system: one goroutine
// per live server group, random-timer competition for the update slot, and
// load splits negotiated through the distributed dual-decomposition
// protocol. It computes the same chain as Solve up to randomness.
func SolveDistributed(p *dcmodel.SlotProblem, opts Options) (Result, error) {
	if p.Wd <= 0 {
		// The price protocol cannot split load without a delay term.
		return Result{}, loadbalance.ErrNeedsDelayWeight
	}
	e, err := newEngine(p, opts)
	if err != nil {
		return Result{}, err
	}
	agents := make([]*distAgent, 0, len(e.alive))
	var wg sync.WaitGroup
	for _, g := range e.alive {
		a := &distAgent{
			id:     g,
			speeds: p.Cluster.Groups[g].Type.NumSpeeds(),
			rng:    stats.NewRNG(opts.Seed ^ (0x9e3779b97f4a7c15 * uint64(g+1))),
			inbox:  make(chan agentMsg, 1),
		}
		agents = append(agents, a)
		wg.Add(1)
		go func() {
			defer wg.Done()
			a.loop()
		}()
	}
	defer func() {
		for _, a := range agents {
			close(a.inbox)
		}
		wg.Wait()
	}()

	broadcast := func(m agentMsg) []agentReply {
		replies := make(chan agentReply, len(agents))
		m.reply = replies
		for _, a := range agents {
			a.inbox <- m
		}
		out := make([]agentReply, 0, len(agents))
		for range agents {
			out = append(out, <-replies)
		}
		return out
	}
	ask := func(a *distAgent, m agentMsg) agentReply {
		reply := make(chan agentReply, 1)
		m.reply = reply
		a.inbox <- m
		return <-reply
	}

	byID := make(map[int]*distAgent, len(agents))
	for _, a := range agents {
		byID[a.id] = a
	}

	// Lines 2–7 per iteration; run owns the loop around them.
	step := func(delta float64, sweep *span.Span) {
		// Lines 2–5 on the current exploration vector.
		if p.Feasible(e.speeds) {
			split := sweep.Child("gsd.loadsplit")
			sol, rounds, lbErr := loadbalance.SolveDistributed(p, e.speeds)
			if m := opts.Metrics; m != nil && m.DualRounds != nil {
				m.DualRounds.Add(float64(rounds))
			}
			if sweep != nil {
				split.Set(span.Int("dual_rounds", rounds))
				if lbErr != nil {
					split.Set(span.Str("error", lbErr.Error()))
				} else {
					split.Set(span.Float("value", sol.Value))
				}
				split.End()
			}
			if lbErr == nil {
				if sol.Value < e.bestEver.Value {
					e.bestEver.CopyFrom(&sol)
				}
				// Any agent can arbitrate; the first one does.
				dec := ask(agents[0], agentMsg{
					kind: acceptDecide, delta: delta,
					gBest: e.best.Value, gExpl: sol.Value,
				})
				if sweep != nil {
					sweep.Set(
						span.Float("u", acceptProb(delta, sol.Value, e.best.Value)),
						span.Bool("accepted", dec.accept),
						span.Float("g_explore", sol.Value), span.Float("g_best", e.best.Value))
				}
				if dec.accept {
					e.best.CopyFrom(&sol)
					e.accept++
				} else {
					copy(e.speeds, e.best.Speeds)
				}
			} else {
				copy(e.speeds, e.best.Speeds)
			}
		} else {
			sweep.Set(span.Bool("feasible", false))
			copy(e.speeds, e.best.Speeds)
		}
		// Line 7 via random-timer competition.
		timers := broadcast(agentMsg{kind: drawTimer})
		winner := timers[0]
		for _, r := range timers[1:] {
			if r.timer < winner.timer {
				winner = r
			}
		}
		prop := ask(byID[winner.id], agentMsg{kind: proposeSpeed})
		e.speeds[winner.id] = prop.speed
		sweep.Set(span.Int("group", winner.id), span.Int("proposed_speed", prop.speed))
	}
	return e.run(step, span.Bool("distributed", true)), nil
}
