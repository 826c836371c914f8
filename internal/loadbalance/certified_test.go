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

// probeCounter is an instance's fill system with its price probes and the
// exact sums they fell back to counted.
type probeCounter struct {
	*fillSystem
	probes, exact int
}

func (c *probeCounter) SumAllocBound(nu float64) (float64, float64) {
	c.probes++
	return c.fillSystem.SumAllocBound(nu)
}

func (c *probeCounter) SumAlloc(nu float64) float64 {
	c.exact++
	return c.fillSystem.SumAlloc(nu)
}

// TestCertifiedProbesRarelyFallBack pins the saving of certified probes on
// the two LoadSplitProposal clusters: over a proposal loop (one speed delta,
// fills at the grid, surplus and an intermediate electricity weight, then
// the rollback) the estimate must decide almost every probe. A bound that is
// sound but too loose would send most probes to the O(groups) exact sum and
// give the whole saving back without changing a bit; this catches that.
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
	const maxExactPerFill = 5
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
			perFill := float64(pc.exact) / float64(fills)
			t.Logf("%d fills: %.1f probes and %.2f exact sums per fill",
				fills, float64(pc.probes)/float64(fills), perFill)
			if perFill > maxExactPerFill {
				t.Fatalf("%.2f exact sums per fill (of %.1f probes), want at most %d",
					perFill, float64(pc.probes)/float64(fills), maxExactPerFill)
			}
		})
	}
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
						// Midway between the surplus and grid fills' power.
						grid, gerr := in.fill(p.We)
						free, ferr := in.fill(0)
						if gerr == nil && ferr == nil {
							p.OnsiteKW = (in.powerOf(grid) + in.powerOf(free)) / 2
						}
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
