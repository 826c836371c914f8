package baseline

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/numopt"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/trace"
)

// refPerfectHPDecide is the reference PerfectHP decision rule: a verbatim
// copy of the straightforward form, which re-solves every probe η anew
// (the bisection's endpoints, then once more for the round-up test
// and again for the returned configuration). PerfectHP.Decide must pick
// exactly the same configuration with fewer solves.
func refPerfectHPDecide(p *PerfectHP, obs sim.Observation) (sim.Config, error) {
	cap := p.budgets[obs.Slot]
	free, err := p.s.solve(obs, 0)
	if err != nil {
		return sim.Config{}, err
	}
	if free.GridKWh <= cap {
		return sim.Config{Speed: free.Speed, Active: free.Active}, nil
	}
	if p.s.gridAt(obs, etaCap) > cap {
		return sim.Config{Speed: free.Speed, Active: free.Active}, nil
	}
	hi := 1.0
	for p.s.gridAt(obs, hi) > cap && hi < etaCap {
		hi *= 4
	}
	eta := numopt.BisectMonotone(func(x float64) float64 {
		return p.s.gridAt(obs, x)
	}, cap, 0, hi, hi*1e-6, 40)
	for i := 0; i < 20 && p.s.gridAt(obs, eta) > cap; i++ {
		eta = eta*1.05 + 1e-9
	}
	sol, err := p.s.solve(obs, eta)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{Speed: sol.Speed, Active: sol.Active}, nil
}

// oraclePolicy runs PerfectHP under the simulator and checks every decision
// against refPerfectHPDecide on the same observation, counting which branch
// of the rule each slot took.
type oraclePolicy struct {
	t   *testing.T
	php *PerfectHP

	slack, binding, infeasible, mismatches int
}

func (o *oraclePolicy) Name() string { return o.php.Name() }

func (o *oraclePolicy) Decide(obs sim.Observation) (sim.Config, error) {
	got, err := o.php.Decide(obs)
	want, refErr := refPerfectHPDecide(o.php, obs)
	if (err == nil) != (refErr == nil) {
		o.t.Fatalf("slot %d: err %v, reference err %v", obs.Slot, err, refErr)
	}
	if got != want {
		if o.mismatches++; o.mismatches <= 5 {
			o.t.Errorf("slot %d: config %+v, reference %+v", obs.Slot, got, want)
		}
	}
	cap := o.php.budgets[obs.Slot]
	switch {
	case o.php.s.gridAt(obs, 0) <= cap:
		o.slack++
	case o.php.s.gridAt(obs, etaCap) > cap:
		o.infeasible++
	default:
		o.binding++
	}
	return got, err
}

func (o *oraclePolicy) Observe(fb sim.Feedback) { o.php.Observe(fb) }

// TestPerfectHPMatchesReferenceDecide runs a year of a small scenario under
// PerfectHP with the true workload and with a forecast, and requires every
// slot's configuration to equal the reference rule's. Both the cap-binding
// bisection and the infeasible-cap fallback must actually be exercised.
func TestPerfectHPMatchesReferenceDecide(t *testing.T) {
	sc, _, err := simtest.Build(simtest.Options{Slots: trace.HoursPerYear, N: 300})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		forecast *trace.Trace
	}{
		{"perfect", sc.Workload},
		{"profile-ewma", predict.ProfileEWMA{Alpha: 0.3}.Forecast(sc.Workload)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			php, err := NewPerfectHPWithForecast(sc, 48, c.forecast)
			if err != nil {
				t.Fatal(err)
			}
			o := &oraclePolicy{t: t, php: php}
			if _, err := sim.Run(sc, o); err != nil {
				t.Fatal(err)
			}
			t.Logf("slots: %d slack, %d cap-binding, %d infeasible", o.slack, o.binding, o.infeasible)
			if o.mismatches > 0 {
				t.Fatalf("%d of %d slots differ from the reference rule", o.mismatches, sc.Slots)
			}
			if o.binding == 0 || o.infeasible == 0 {
				t.Fatalf("scenario does not exercise both cap branches: %d binding, %d infeasible",
					o.binding, o.infeasible)
			}
		})
	}
}

// TestOPTAndLookaheadDualsPinned pins the bits of OPT's yearly dual price
// and of Lookahead's per-frame dual prices and frame optima on a small
// scenario, so the dual bisections can be restructured only if they land
// on exactly the same η.
func TestOPTAndLookaheadDualsPinned(t *testing.T) {
	sc, _ := buildScenario(t, 8*24)
	opt, err := NewOPT(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(opt.Eta()), uint64(0x3f91d3ce851eb852); got != want {
		t.Errorf("OPT η bits = %#016x (%v), want %#016x", got, opt.Eta(), want)
	}
	la, err := NewLookahead(sc, 48)
	if err != nil {
		t.Fatal(err)
	}
	var etas, optima string
	for f, eta := range la.etas {
		etas += fmt.Sprintf("%#016x ", math.Float64bits(eta))
		optima += fmt.Sprintf("%#016x ", math.Float64bits(la.FrameOptima()[f]))
	}
	if want := "0x3fa8a421570a3d71 0x0000000000000000 0x3fb0e40080000000 0x3f29d10000000000 "; etas != want {
		t.Errorf("Lookahead η bits = %q, want %q", etas, want)
	}
	if want := "0x40006ab0b20fcd0e 0x4002b31efb731307 0x400104eec5273307 0x3ffafae199dd22b5 "; optima != want {
		t.Errorf("Lookahead G* bits = %q, want %q", optima, want)
	}
}
