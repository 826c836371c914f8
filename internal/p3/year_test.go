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
// policy posed it and counts the searches' probes.
type probeCounter struct {
	*core.Policy
	t     *testing.T
	sc    *sim.Scenario
	sched lyapunov.VSchedule

	prev, pending           int // the settled and the proposed active count
	searches, probes        int // Solve's
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
	sol, searches, probes, err := p3.SolveCounted(&hp)
	if err != nil || sol.Speed != cfg.Speed || sol.Active != cfg.Active {
		c.t.Fatalf("slot %d: the rebuilt problem gives %+v, %v; the policy decided %+v", obs.Slot, sol, err, cfg)
	}
	c.searches += searches
	c.probes += probes
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

// TestCOCAYearProbesPerSearch pins the probes the certified plateau saves
// over a seed-1 COCA year at the paper's 216,000 servers: Solve's searches
// must average at most 3 probes (numopt.MinimizeInt's ternary search
// makes ~61), and over every feasible speed's window the kernel search at
// most 60% of MinimizeInt's.
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
	mean := float64(c.probes) / float64(c.searches)
	wMean, refMean := float64(c.wProbes)/float64(c.windows), float64(c.wRefs)/float64(c.windows)
	t.Logf("probes per search: Solve %.1f over %d searches; every window %.1f, MinimizeInt %.1f, over %d",
		mean, c.searches, wMean, refMean, c.windows)
	if mean > 3 || wMean > 0.6*refMean {
		t.Errorf("probes per search: Solve %.1f (want ≤ 3); every window %.1f against MinimizeInt's %.1f (want ≤ 60%%)",
			mean, wMean, refMean)
	}
}
