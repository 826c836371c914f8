package loadbalance

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/stats"
)

// TestLowerBoundBelowEverySplit pins LowerBound's contract: at any price
// ν ≥ 0 and kink weight μ in [0, 1] it never exceeds the value SolveInto
// (or SolveDistributedInto) returns for the instance's speeds. It walks
// random SetSpeed/Revert/Commit sequences on every class family in the
// grid, surplus, kink and Wd = 0 regimes, and tries the split's own dual,
// random prices around it, zero and far-off prices, and random μ.
func TestLowerBoundBelowEverySplit(t *testing.T) {
	for _, fam := range classFamilies() {
		for _, regime := range []string{"grid", "surplus", "kink", "no-delay"} {
			t.Run(fmt.Sprintf("%s/%s", fam.name, regime), func(t *testing.T) {
				c := fam.cluster
				n := len(c.Groups)
				rng := stats.NewRNG(0x10B0 + uint64(n))
				p, in := boundInstance(t, c, regime, rng)
				var sol, dist dcmodel.Solution
				checked := 0
				for step := 0; step < 80; step++ {
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
					ownNu, ownMu := in.Dual()
					if p.Wd > 0 && step%4 == 0 {
						if _, err := in.SolveDistributedInto(&dist); err != nil {
							t.Fatal(err)
						}
						if dNu, dMu := in.Dual(); math.IsNaN(dNu) != math.IsNaN(ownNu) || dMu != ownMu {
							t.Fatalf("step %d: distributed dual (%v, %v), centralized (%v, %v)", step, dNu, dMu, ownNu, ownMu)
						}
					}
					scale := ownNu
					if !(scale > 0) {
						scale = 1
					}
					probes := [][2]float64{{ownNu, ownMu}, {0, 0}, {0, 1}, {1e6 * scale, 1}}
					for i := 0; i < 12; i++ {
						probes = append(probes, [2]float64{
							scale * math.Exp(4*(rng.Float64()-0.5)), rng.Float64()})
					}
					for _, pr := range probes {
						lb := in.LowerBound(pr[0], pr[1])
						if lb > sol.Value {
							t.Fatalf("step %d (%s): LowerBound(%v, %v) = %v above the split's %v",
								step, regimeOf(in), pr[0], pr[1], lb, sol.Value)
						}
						if math.IsNaN(lb) {
							t.Fatalf("step %d: LowerBound(%v, %v) is NaN", step, pr[0], pr[1])
						}
					}
					checked++
				}
				if checked < 25 {
					t.Fatalf("only %d of 80 steps feasible; generator drifted", checked)
				}
			})
		}
	}
}

// TestLowerBoundTightAtOwnDual pins how close LowerBound comes at the
// split's own dual: in the grid regime the Lagrangian at the fill's price
// is the split's value less ν times the fill's load residual, so the bound
// sits within a relative 1e-9 of the value on the paper's 200 groups and on
// a fleet-100k site (390 servers in 39 groups). It also covers the surplus
// and kink regimes, whose duals leave the same gap.
func TestLowerBoundTightAtOwnDual(t *testing.T) {
	const tol = 1e-9
	for _, c := range []struct {
		name    string
		cluster *dcmodel.Cluster
	}{
		{"paper-200", dcmodel.PaperCluster(200)},
		{"site-390x39", dcmodel.HeterogeneousCluster(390, 39)},
	} {
		for _, regime := range []string{"grid", "surplus", "kink"} {
			t.Run(c.name+"/"+regime, func(t *testing.T) {
				n := len(c.cluster.Groups)
				rng := stats.NewRNG(0x7167 + uint64(n))
				p, in := boundInstance(t, c.cluster, regime, rng)
				var sol dcmodel.Solution
				worst, reached := 0.0, 0
				for step := 0; step < 100; step++ {
					g := rng.IntN(n)
					if err := in.SetSpeed(g, 1+rng.IntN(c.cluster.Groups[g].Type.NumSpeeds())); err != nil {
						t.Fatal(err)
					}
					if regime == "kink" {
						setKinkSupply(p, in)
					}
					if err := in.SolveInto(&sol); err != nil {
						in.Revert()
						continue
					}
					in.Commit()
					if regimeOf(in) != regime {
						continue
					}
					reached++
					lb := in.LowerBound(in.Dual())
					gap := (sol.Value - lb) / math.Abs(sol.Value)
					if !(gap >= 0 && gap <= tol) {
						t.Fatalf("step %d: value %v, bound at its own dual %v (relative gap %v)", step, sol.Value, lb, gap)
					}
					worst = math.Max(worst, gap)
				}
				if reached < 30 {
					t.Fatalf("only %d of 100 steps in the %s regime; generator drifted", reached, regime)
				}
				t.Logf("worst relative gap %.3g over %d splits", worst, reached)
			})
		}
	}
}

// boundInstance builds a random-speed instance at 30% of the cluster's
// capacity in the given regime; the kink regime's supply is set per step.
func boundInstance(t *testing.T, c *dcmodel.Cluster, regime string, rng *stats.RNG) (*dcmodel.SlotProblem, *Instance) {
	t.Helper()
	speeds := make([]int, len(c.Groups))
	for g := range speeds {
		speeds[g] = 1 + rng.IntN(c.Groups[g].Type.NumSpeeds())
	}
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 0.3 * c.MaxCapacityRPS(), We: 0.07, Wd: 0.02}
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
	return p, in
}

// setKinkSupply puts the on-site supply midway between the surplus and grid
// fills' power, where the split pins power at the kink.
func setKinkSupply(p *dcmodel.SlotProblem, in *Instance) {
	grid, gerr := in.fill(p.We)
	free, ferr := in.fill(0)
	if gerr == nil && ferr == nil {
		p.OnsiteKW = (in.powerOf(grid) + in.powerOf(free)) / 2
	}
}
