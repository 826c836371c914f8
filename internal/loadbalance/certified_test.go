package loadbalance

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/numopt"
	"repro/internal/stats"
)

// probeCounter is an instance's fill system with its price probes, the
// exact sums they fell back to and the locator's slope sweeps counted.
type probeCounter struct {
	*fillSystem
	probes, exact, slopes int
}

func (c *probeCounter) SumAllocSlope(nu float64) (float64, float64) {
	c.slopes++
	return c.fillSystem.SumAllocSlope(nu)
}

func (c *probeCounter) SumAllocBound(nu float64) (float64, float64) {
	c.probes++
	return c.fillSystem.SumAllocBound(nu)
}

func (c *probeCounter) SumAlloc(nu float64) float64 {
	c.exact++
	return c.fillSystem.SumAlloc(nu)
}

// check fails t unless the fills c counted took at most maxSweeps class
// sweeps (probes plus slope sweeps) and maxExact exact sums each.
func (c *probeCounter) check(t *testing.T, fills int, maxSweeps, maxExact float64) {
	t.Helper()
	perFill := func(k int) float64 { return float64(k) / float64(fills) }
	t.Logf("%d fills: %.2f probes, %.2f exact sums and %.2f slope sweeps per fill",
		fills, perFill(c.probes), perFill(c.exact), perFill(c.slopes))
	if perFill(c.exact) > maxExact {
		t.Fatalf("%.2f exact sums per fill (of %.2f probes), want at most %v",
			perFill(c.exact), perFill(c.probes), maxExact)
	}
	if sweeps := perFill(c.probes + c.slopes); sweeps > maxSweeps {
		t.Fatalf("%.2f class sweeps per fill (%.2f probes, %.2f slope sweeps), want at most %v",
			sweeps, perFill(c.probes), perFill(c.slopes), maxSweeps)
	}
}

// TestCertifiedProbesRarelyFallBack pins the saving of certified probes, of
// the located price search and of its hint on the two LoadSplitProposal
// clusters. Over a proposal loop (one speed delta, fills at the grid,
// surplus and an intermediate electricity weight, then the rollback) the
// estimate must decide almost every probe and the locator must settle most
// bisection steps without one. The gsd subtest is the GSD engine's loop on
// the fleet's site: a random proposal, one fill at the grid weight, then a
// rollback or an accept; there the hint, the last fill's price, starts the
// locator next to the root. A bound that is sound but too loose would send
// most probes to the O(groups) exact sum, a locator that stops locating
// would go back to a probe per step, and a lost hint would cost the
// locator's sweeps from the bracket's top; none changes a bit, so this test
// is what catches them.
func TestCertifiedProbesRarelyFallBack(t *testing.T) {
	site := dcmodel.HeterogeneousCluster(390, 39)
	cases := []struct {
		name           string
		cluster        *dcmodel.Cluster
		lambda, onsite float64
	}{
		{"paper-200", dcmodel.PaperCluster(200), 4e5, 2000},
		{"site-390x39", site, 0.3 * site.MaxCapacityRPS(), 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.cluster.Groups)
			speeds := make([]int, n)
			for i := range speeds {
				speeds[i] = 1 + i%4
			}
			p := &dcmodel.SlotProblem{
				Cluster: tc.cluster, LambdaRPS: tc.lambda,
				We: 0.07, Wd: 0.02, OnsiteKW: tc.onsite,
			}
			in, err := NewInstance(p, speeds)
			if err != nil {
				t.Fatal(err)
			}
			pc := &probeCounter{fillSystem: &in.sys}
			var buf []float64
			fills := 0
			for i := 0; i < 4*n; i++ {
				g := i % n
				if err := in.SetSpeed(g, 1+(speeds[g]+i)%4); err != nil {
					t.Fatal(err)
				}
				for _, omega := range []float64{p.We, 0, p.We / 3} {
					in.sys.prepare(omega)
					if buf, err = numopt.WaterFillInto(pc, p.LambdaRPS, waterFillTol, buf); err != nil {
						t.Fatal(err)
					}
					fills++
				}
				in.Revert()
			}
			pc.check(t, fills, 10, 5)
		})
	}
	t.Run("gsd/site-390x39", func(t *testing.T) {
		n := len(site.Groups)
		rng := stats.NewRNG(0x65D)
		speeds := make([]int, n)
		for i := range speeds {
			speeds[i] = 1 + rng.IntN(site.Groups[i].Type.NumSpeeds())
		}
		p := &dcmodel.SlotProblem{
			Cluster: site, LambdaRPS: 0.3 * site.MaxCapacityRPS(),
			We: 0.07, Wd: 0.02,
		}
		in, err := NewInstance(p, speeds)
		if err != nil {
			t.Fatal(err)
		}
		pc := &probeCounter{fillSystem: &in.sys}
		var buf []float64
		fills := 0
		for i := 0; i < 100*n; i++ {
			g := rng.IntN(n)
			if err := in.SetSpeed(g, rng.IntN(site.Groups[g].Type.NumSpeeds()+1)); err != nil {
				t.Fatal(err)
			}
			if in.Feasible() {
				in.sys.prepare(p.We)
				if buf, err = numopt.WaterFillInto(pc, p.LambdaRPS, waterFillTol, buf); err != nil {
					t.Fatal(err)
				}
				fills++
			}
			if rng.Bernoulli(0.3) {
				in.Commit()
			} else {
				in.Revert()
			}
		}
		pc.check(t, fills, 9, 3)
	})
}

// TestSolveValueMatchesObjective pins the on-group objective pass of
// SolveInto against SlotProblem.Objective, bit for bit, after random
// SetSpeed/Revert/Commit sequences on every class family, in the grid,
// surplus, kink and Wd = 0 regimes.
func TestSolveValueMatchesObjective(t *testing.T) {
	regimes := []string{"grid", "surplus", "kink", "no-delay"}
	for _, fam := range classFamilies() {
		for _, regime := range regimes {
			t.Run(fmt.Sprintf("%s/%s", fam.name, regime), func(t *testing.T) {
				c := fam.cluster
				n := len(c.Groups)
				rng := stats.NewRNG(0x0B1EC7 + uint64(n))
				speeds := make([]int, n)
				for g := range speeds {
					speeds[g] = 1 + rng.IntN(c.Groups[g].Type.NumSpeeds())
				}
				p := &dcmodel.SlotProblem{
					Cluster: c, LambdaRPS: 0.3 * c.MaxCapacityRPS(),
					We: 0.07, Wd: 0.02,
				}
				switch regime {
				case "surplus":
					p.OnsiteKW = 1e12
				case "no-delay":
					p.Wd, p.OnsiteKW = 0, 0.2*c.PeakPowerKW()
				}
				in, err := NewInstance(p, speeds)
				if err != nil {
					t.Fatal(err)
				}
				var sol dcmodel.Solution
				solved, reached := 0, 0
				for step := 0; step < 200; step++ {
					switch op := rng.IntN(10); {
					case op < 6:
						g := rng.IntN(n)
						if err := in.SetSpeed(g, rng.IntN(c.Groups[g].Type.NumSpeeds()+1)); err != nil {
							t.Fatal(err)
						}
					case op < 8:
						in.Revert()
					default:
						in.Commit()
					}
					if regime == "kink" {
						setKinkSupply(p, in)
					}
					if err := in.SolveInto(&sol); err != nil {
						if errors.Is(err, ErrInfeasible) {
							continue
						}
						t.Fatal(err)
					}
					solved++
					if regimeOf(in) == regime {
						reached++
					}
					if want := p.Objective(sol.Speeds, sol.Load); math.Float64bits(sol.Value) != math.Float64bits(want) {
						t.Fatalf("step %d: Value %v, Objective %v (speeds %v)", step, sol.Value, want, sol.Speeds)
					}
				}
				if solved < 50 || reached < solved/2 {
					t.Fatalf("%d of 200 steps feasible, %d of them in the %s regime; generator drifted",
						solved, reached, regime)
				}
			})
		}
	}
}

// regimeOf reports which regime solveWith takes on in's current state:
// "no-delay" when Wd = 0, else by the same power tests.
func regimeOf(in *Instance) string {
	p := in.prob
	if p.Wd <= 0 {
		return "no-delay"
	}
	grid, err := in.fill(p.We)
	if err != nil {
		return ""
	}
	if p.We == 0 || in.powerOf(grid) >= p.OnsiteKW-powerTol {
		return "grid"
	}
	free, err := in.fill(0)
	if err != nil {
		return ""
	}
	if in.powerOf(free) <= p.OnsiteKW+powerTol {
		return "surplus"
	}
	return "kink"
}

// TestSumAllocMonotoneBitwise pins the BulkWaterSystem contract the located
// price search rests on: the computed SumAlloc never decreases from ν to
// the next float up. It walks ulp by ulp around every class's entry price
// (where its allocation leaves 0) and cap price (where it reaches γ·R),
// through the root of the fill and across random prices spanning the
// bracket, at the grid, surplus and an intermediate (kink) electricity
// weight, on both LoadSplitProposal clusters.
func TestSumAllocMonotoneBitwise(t *testing.T) {
	site := dcmodel.HeterogeneousCluster(390, 39)
	cases := []struct {
		name    string
		cluster *dcmodel.Cluster
		lambda  float64
	}{
		{"paper-200", dcmodel.PaperCluster(200), 4e5},
		{"site-390x39", site, 0.3 * site.MaxCapacityRPS()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.cluster.Groups)
			speeds := make([]int, n)
			for i := range speeds {
				speeds[i] = 1 + i%4
			}
			p := &dcmodel.SlotProblem{Cluster: tc.cluster, LambdaRPS: tc.lambda, We: 0.07, Wd: 0.02}
			in, err := NewInstance(p, speeds)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(0x3070 + uint64(n))
			s := &in.sys
			checked, rises := 0, 0
			walk := func(nu float64, steps int) {
				e := s.SumAlloc(nu)
				for k := 0; k < steps; k++ {
					next := math.Nextafter(nu, math.Inf(1))
					en := s.SumAlloc(next)
					if !(e <= en) {
						t.Fatalf("SumAlloc(%v) = %v > SumAlloc(%v) = %v", nu, e, next, en)
					}
					if en > e {
						rises++
					}
					checked++
					nu, e = next, en
				}
			}
			for _, omega := range []float64{p.We, 0, p.We / 3} {
				s.prepare(omega)
				lo, hi := s.ZeroDerivRange()
				for _, r := range in.cls.live {
					c := &in.cls.rows[r]
					walk(c.oslope+c.wdnr/(c.rate*c.rate), 200) // entry: v leaves 0
					gap := c.rate - c.cap                      // cap: v reaches γ·R
					walk(c.oslope+c.wdnr/(gap*gap), 200)
				}
				for _, frac := range []float64{0.05, 0.5, 0.95, 0.999} {
					target := frac * s.CapSum()
					walk(numopt.BisectMonotone(s.SumAlloc, target, lo, 64*(hi-lo)+hi, 0, 200), 200)
				}
				for k := 0; k < 200; k++ {
					walk(lo+rng.Uniform(-0.1, 64)*(hi-lo), 20)
				}
			}
			if rises < checked/20 {
				t.Fatalf("only %d of %d steps raised the sum; the walk misses the moving regime", rises, checked)
			}
			t.Logf("%d ulp steps, %d strict rises", checked, rises)
		})
	}
}
