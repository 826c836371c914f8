package p3_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lyapunov"
	"repro/internal/p3"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// probeCounter is a COCA policy that re-solves each slot's P3 as the
// policy posed it and counts the solves' work.
type probeCounter struct {
	*core.Policy
	t     *testing.T
	sc    *sim.Scenario
	sched lyapunov.VSchedule

	prev, pending           int // the settled and the proposed active count
	solves                  int // with load
	sum, most               p3.SolveCounts
	windows, wProbes, wRefs int // every feasible window's, and MinimizeInt's there
}

// Decide rebuilds the slot's problem from the schedule's V and the queue
// as Decide left it (after any frame reset, before the slot settles), and
// checks that it gives the policy's decision.
func (c *probeCounter) Decide(obs sim.Observation) (sim.Config, error) {
	cfg, err := c.Policy.Decide(obs)
	if err != nil {
		return cfg, err
	}
	v := c.sched.V(obs.Slot)
	hp := c.sc.P3At(obs, v, c.Policy.Queue())
	hp.SwitchWeight = v * obs.PriceUSDPerKWh * c.sc.SwitchCostKWh
	hp.PrevActive = c.prev
	sol, n, err := p3.SolveCounted(&hp)
	if err != nil || sol.Speed != cfg.Speed || sol.Active != cfg.Active {
		c.t.Fatalf("slot %d: the rebuilt problem gives %+v, %v; the policy decided %+v", obs.Slot, sol, err, cfg)
	}
	if hp.LambdaRPS > 0 {
		c.solves++
		c.sum.Searches += n.Searches
		c.sum.Probes += n.Probes
		c.sum.Aims += n.Aims
		c.most.Searches = max(c.most.Searches, n.Searches)
		c.most.Aims = max(c.most.Aims, n.Aims)
	}
	windows, wProbes, wRefs := p3.WindowProbes(&hp)
	c.windows += windows
	c.wProbes += wProbes
	c.wRefs += wRefs
	c.pending = cfg.Active
	return cfg, nil
}

func (c *probeCounter) Observe(fb sim.Feedback) {
	c.Policy.Observe(fb)
	c.prev = c.pending
}

// TestCOCAYearProbesPerSearch pins the work the certificates save over a
// seed-1 COCA year at the paper's 216,000 servers. Every solve with load
// must run exactly one search and aim the kernel exactly once: Solve visits
// the Opteron's top speed first, and its answer beats the other three (see
// speedKernel.beats). Solve's searches must average at most 3 probes
// (numopt.MinimizeInt's ternary search makes ~61), and over every feasible
// speed's window the kernel search at most 60% of MinimizeInt's.
func TestCOCAYearProbesPerSearch(t *testing.T) {
	sc, _, err := simtest.Build(simtest.Options{Slots: 8760, N: 216000, Beta: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched := lyapunov.ConstantV(2e8, 1, sc.Slots)
	pol, err := core.New(core.FromScenario(sc, sched))
	if err != nil {
		t.Fatal(err)
	}
	c := &probeCounter{Policy: pol, t: t, sc: sc, sched: sched}
	if _, err := sim.Run(sc, c); err != nil {
		t.Fatal(err)
	}
	t.Logf("over %d solves with load: %d searches (at most %d a solve), %d aims (at most %d)",
		c.solves, c.sum.Searches, c.most.Searches, c.sum.Aims, c.most.Aims)
	if c.solves == 0 || c.sum.Searches != c.solves || c.most.Searches != 1 ||
		c.sum.Aims != c.solves || c.most.Aims != 1 {
		t.Errorf("want exactly 1 search and 1 aim in each of %d solves", c.solves)
	}
	mean := float64(c.sum.Probes) / float64(c.sum.Searches)
	wMean, refMean := float64(c.wProbes)/float64(c.windows), float64(c.wRefs)/float64(c.windows)
	t.Logf("probes per search: Solve %.1f over %d searches; every window %.1f, MinimizeInt %.1f, over %d",
		mean, c.sum.Searches, wMean, refMean, c.windows)
	if mean > 3 || wMean > 0.6*refMean {
		t.Errorf("probes per search: Solve %.1f (want ≤ 3); every window %.1f against MinimizeInt's %.1f (want ≤ 60%%)",
			mean, wMean, refMean)
	}
}
