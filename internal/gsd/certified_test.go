package gsd

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/loadbalance"
	"repro/internal/stats"
	"repro/internal/telemetry/span"
)

// referenceStep is the iteration body that splits every proposal before
// drawing its acceptance, kept verbatim as the oracle step's certified
// rejections must reproduce bit for bit.
func (e *engine) referenceStep(delta float64, sweep *span.Span) {
	// Lines 2–5: evaluate the exploration if it is feasible.
	if e.inst.Feasible() {
		var split *span.Span
		if sweep != nil {
			split = sweep.Child("gsd.loadsplit")
		}
		sol, rounds, err := e.evalExploration()
		if e.agents != nil {
			e.stats.DualRounds += rounds
			if sweep != nil {
				split.Set(span.Int("dual_rounds", rounds))
			}
		}
		if sweep != nil {
			if err != nil {
				split.Set(span.Str("error", err.Error()))
			} else {
				split.Set(span.Float("value", sol.Value))
			}
			split.End()
		}
		if err == nil {
			if sol.Value < e.bestEver.Value {
				e.bestEver.CopyFrom(sol)
			}
			u := acceptProb(delta, sol.Value, e.best.Value)
			accepted := e.arbiter().Bernoulli(u)
			if sweep != nil {
				sweep.Set(
					span.Float("u", u), span.Bool("accepted", accepted),
					span.Float("g_explore", sol.Value), span.Float("g_best", e.best.Value))
			}
			if accepted {
				if sol != &e.best {
					e.best.CopyFrom(sol)
				}
				e.inst.Commit()
				e.stats.Accepted++
			} else {
				e.revertProposal()
			}
		} else {
			e.revertProposal()
		}
	} else {
		// Infeasible exploration: acceptance probability is 0 (g̃ᵉ = +Inf);
		// revert to the incumbent.
		if sweep != nil {
			sweep.Set(span.Bool("feasible", false))
		}
		e.revertProposal()
	}
	// Line 7: a random live group explores a random speed.
	g, k := e.propose()
	e.speeds[g] = k
	if err := e.inst.SetSpeed(g, k); err != nil {
		panic("gsd: proposal out of range: " + err.Error())
	}
	e.propG = g
	if sweep != nil {
		sweep.Set(span.Int("group", g), span.Int("proposed_speed", k))
	}
}

// evalExploration is the split referenceStep runs on every feasible
// proposal: the incumbent when the proposal re-drew its own speed (no
// split), else the load split and the prices it broadcast (0 for the
// centralized split).
func (e *engine) evalExploration() (*dcmodel.Solution, int, error) {
	if !e.splitPending() {
		return &e.best, 0, nil
	}
	var rounds int
	var err error
	if e.agents == nil {
		err = e.inst.SolveInto(&e.eval)
	} else {
		rounds, err = e.inst.SolveDistributedInto(&e.eval)
	}
	if err != nil {
		return nil, rounds, err
	}
	return &e.eval, rounds, nil
}

// chainCase is one certified-reject scenario: a problem, the run options
// and which engine runs it.
type chainCase struct {
	name        string
	p           *dcmodel.SlotProblem
	opts        Options
	distributed bool
}

// runChain runs c on a fresh engine, under referenceStep when reference is
// set. With bounds set, before every step it asks certifiable whether the
// pending proposal qualifies and, when it does and its bound is above the
// best-ever value (so that the bound can reject it), checks the bound
// against a fresh split of the proposal's speeds. It returns the Result's
// hash and the number of proposals rejected unsplit.
func runChain(t testing.TB, c chainCase, reference, bounds bool) (string, int) {
	t.Helper()
	var (
		e   *engine
		err error
	)
	if c.distributed {
		e, err = newDistributedEngine(c.p, c.opts)
	} else {
		e, err = newEngine(c.p, c.opts)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	step := e.step
	if reference {
		step = e.referenceStep
	}
	checked := step
	if bounds {
		checked = func(delta float64, sweep *span.Span) {
			if lb, _, ok := e.certifiable(delta); ok && lb > e.bestEver.Value {
				sol, err := loadbalance.Solve(e.p, e.speeds)
				if err != nil {
					t.Fatalf("%s iter %d: a certifiable proposal's split failed: %v", c.name, e.stats.Iters, err)
				}
				if !(lb <= sol.Value) {
					t.Fatalf("%s iter %d: lower bound %v above the split's value %v", c.name, e.stats.Iters, lb, sol.Value)
				}
			}
			step(delta, sweep)
		}
	}
	res := e.run(checked)
	return hashRun(res), res.Stats.CertifiedRejects
}

// requireReferenceChain runs c under both step bodies and requires the
// reference chain's bits; it returns the certified rejections.
func requireReferenceChain(t testing.TB, c chainCase) int {
	t.Helper()
	want, _ := runChain(t, c, true, false)
	got, rejects := runChain(t, c, false, true)
	if got != want {
		t.Fatalf("%s: certified-reject chain %s, reference chain %s", c.name, got, want)
	}
	return rejects
}

// chainProblem builds the problem at load fraction load of c's capacity in
// the given regime: "grid" (no on-site supply), "surplus" (supply past any
// power), "kink" (supply midway between the surplus and grid splits' power
// at the all-top-speed configuration) or "no-delay" (Wd = 0).
func chainProblem(t testing.TB, c *dcmodel.Cluster, load, we, wd float64, regime string) *dcmodel.SlotProblem {
	t.Helper()
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: load * c.MaxCapacityRPS(), We: we, Wd: wd}
	switch regime {
	case "surplus":
		p.OnsiteKW = 1e12
	case "no-delay":
		p.Wd, p.OnsiteKW = 0, 0.2*c.PeakPowerKW()
	case "kink":
		top := make([]int, len(c.Groups))
		for g := range top {
			top[g] = c.Groups[g].Type.NumSpeeds()
		}
		grid, err := loadbalance.Solve(p, top)
		if err != nil {
			t.Fatal(err)
		}
		p.OnsiteKW = 1e12
		free, err := loadbalance.Solve(p, top)
		if err != nil {
			t.Fatal(err)
		}
		p.OnsiteKW = (c.FacilityPowerKW(top, grid.Load) + c.FacilityPowerKW(top, free.Load)) / 2
	}
	return p
}

// randomCluster is a heterogeneous cluster of n groups of the three server
// generations with random sizes, so some groups share a class and some do
// not.
func randomCluster(rng *stats.RNG, n int) *dcmodel.Cluster {
	gens := dcmodel.HeterogeneousCluster(3, 3)
	c := &dcmodel.Cluster{Gamma: 0.5 + 0.45*rng.Float64(), PUE: 1 + 0.5*rng.Float64()}
	for g := 0; g < n; g++ {
		c.Groups = append(c.Groups, dcmodel.Group{Type: gens.Groups[rng.IntN(3)].Type, N: 1 + rng.IntN(3)*5})
	}
	return c
}

// scaledDelta returns δ = 10^exp times the problem's all-top-speed value,
// so that exp sweeps the chain from a near-uniform walk (exp ≪ 0, the bench
// settings) through acceptances near 0 or 1 (exp ≫ 0).
func scaledDelta(t testing.TB, p *dcmodel.SlotProblem, exp float64) float64 {
	t.Helper()
	top := make([]int, len(p.Cluster.Groups))
	for g := range top {
		top[g] = p.Cluster.Groups[g].Type.NumSpeeds()
	}
	sol, err := loadbalance.Solve(p, top)
	if err != nil {
		t.Fatal(err)
	}
	return math.Abs(sol.Value) * math.Pow(10, exp)
}

// TestCertifiedRejectMatchesReferenceChain pins the certified rejection bit
// for bit: on the paper's 200 groups, a fleet-100k site (390 servers in 39
// groups) and random heterogeneous clusters; in the grid, surplus, kink and
// Wd = 0 regimes; with failed groups; from cold and warm starts; on both
// engines; and at temperatures from the bench's near-uniform walk to
// saturated acceptances, each run's Solution, Iters, Accepted and History
// must equal the reference chain's, which splits every proposal. Every
// certifiable proposal's bound is also checked against its split.
func TestCertifiedRejectMatchesReferenceChain(t *testing.T) {
	var cases []chainCase
	clusters := []struct {
		name string
		c    *dcmodel.Cluster
	}{
		{"paper-200", dcmodel.PaperCluster(200)},
		{"site-390x39", dcmodel.HeterogeneousCluster(390, 39)},
	}
	rng := stats.NewRNG(0xCE27)
	for i := 0; i < 3; i++ {
		clusters = append(clusters, struct {
			name string
			c    *dcmodel.Cluster
		}{fmt.Sprintf("random-%d", i), randomCluster(rng, 5+rng.IntN(20))})
	}
	for _, cl := range clusters {
		n := len(cl.c.Groups)
		failed := make([]bool, n)
		failed[n/2] = true
		warm := make([]int, n)
		for g := range warm {
			warm[g] = 1 + (g % cl.c.Groups[g].Type.NumSpeeds())
		}
		for ri, regime := range []string{"grid", "surplus", "kink", "no-delay"} {
			p := chainProblem(t, cl.c, 0.35, 0.05, 0.02, regime)
			for ei, exp := range []float64{-4, 0, 2, 2.6, 4} {
				// Each regime meets every start across the temperatures.
				opts := Options{Delta: scaledDelta(t, p, exp), MaxIters: 300, Seed: uint64(7 + ri + ei), RecordHistory: true}
				start := []string{"cold", "warm", "failed"}[(ri+ei)%3]
				switch start {
				case "warm":
					opts.InitSpeeds = warm
				case "failed":
					opts.Failed = failed
				}
				cases = append(cases, chainCase{fmt.Sprintf("%s/%s/δ=1e%+.1f·g/%s", cl.name, regime, exp, start), p, opts, false})
				if p.Wd > 0 {
					// The price protocol prices every group per announcement,
					// so the distributed chains run shorter.
					opts.MaxIters = 60
					cases = append(cases, chainCase{fmt.Sprintf("%s/%s/δ=1e%+.1f·g/%s/distributed", cl.name, regime, exp, start), p, opts, true})
				}
			}
		}
	}
	rejects := 0
	for _, c := range cases {
		if _, err := newEngine(c.p, c.opts); err != nil {
			continue // a warm start that cannot carry the load
		}
		rejects += requireReferenceChain(t, c)
	}
	if rejects < 5000 {
		t.Fatalf("only %d certified rejections over %d chains; the cases no longer exercise them", rejects, len(cases))
	}
	t.Logf("%d certified rejections over %d chains", rejects, len(cases))
}

// FuzzCertifiedReject runs random clusters, regimes, temperatures, failure
// masks, warm starts and engines through TestCertifiedRejectMatchesReferenceChain's
// check: the certified-reject chain must equal the reference chain bit for
// bit, and no certifiable proposal's bound may exceed its split.
func FuzzCertifiedReject(f *testing.F) {
	f.Add(uint64(1), uint8(8), 0.35, 0.05, 0.02, uint8(0), -4.0, uint16(0), false, false)
	f.Add(uint64(2), uint8(20), 0.4, 0.2, 0.01, uint8(2), 1.0, uint16(5), true, true)
	f.Add(uint64(3), uint8(4), 0.1, 0.0, 0.05, uint8(1), 3.0, uint16(1), false, true)
	f.Add(uint64(4), uint8(12), 0.5, 1.0, 0.001, uint8(3), 0.0, uint16(0), false, false)
	f.Fuzz(func(t *testing.T, seed uint64, groups uint8, load, we, wd float64, regime uint8,
		exp float64, failMask uint16, warm, dist bool) {
		n := 2 + int(groups)%30
		if !(load > 0 && load <= 0.95) || !(we >= 0 && we <= 10) || !(wd >= 0 && wd <= 10) ||
			!(exp >= -6 && exp <= 6) {
			t.Skip()
		}
		rng := stats.NewRNG(seed)
		c := randomCluster(rng, n)
		p := chainProblem(t, c, load*c.Gamma, we, wd, []string{"grid", "surplus", "kink", "no-delay"}[regime%4])
		if dist && p.Wd <= 0 {
			dist = false
		}
		opts := Options{Delta: scaledDelta(t, p, exp), MaxIters: 200, Seed: seed, RecordHistory: true}
		if failMask != 0 {
			opts.Failed = make([]bool, n)
			for g := 0; g < n && g < 16; g++ {
				opts.Failed[g] = failMask&(1<<g) != 0
			}
		}
		if warm {
			opts.InitSpeeds = make([]int, n)
			for g := range opts.InitSpeeds {
				opts.InitSpeeds[g] = 1 + rng.IntN(c.Groups[g].Type.NumSpeeds())
			}
		}
		if _, err := newEngine(p, opts); err != nil {
			t.Skip() // every group failed, or a warm start that cannot carry the load
		}
		requireReferenceChain(t, chainCase{"fuzz", p, opts, dist})
	})
}
