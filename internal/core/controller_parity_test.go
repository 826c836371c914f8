package core_test

// Controller-vs-sim cost parity: the heterogeneous Controller and the
// homogeneous sim engine charge slots through the same dcmodel.Ledger
// kernel, so on a degenerate cluster (groups of the sim scenario's server
// type) identical decisions must produce identical cost breakdowns — with
// the full extension set engaged: SlotHours ≠ 1 and a nonzero switching
// cost.

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dcmodel"
	"repro/internal/lyapunov"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// scheduledPolicy replays a precomputed per-slot plan into the sim engine.
type scheduledPolicy struct{ plan []sim.Config }

func (p *scheduledPolicy) Name() string                                 { return "scheduled" }
func (p *scheduledPolicy) Decide(o sim.Observation) (sim.Config, error) { return p.plan[o.Slot], nil }
func (p *scheduledPolicy) Observe(sim.Feedback)                         {}

// scriptedSolver replays the matching cluster-level decisions into the
// Controller. The test pins next to the slot being stepped, so a retried
// Step replays the identical solution.
type scriptedSolver struct {
	sols []dcmodel.Solution
	next int
}

func (s *scriptedSolver) Solve(*dcmodel.SlotProblem) (dcmodel.Solution, error) {
	sol := s.sols[s.next]
	return dcmodel.Solution{
		Speeds: append([]int(nil), sol.Speeds...),
		Load:   append([]float64(nil), sol.Load...),
	}, nil
}

// minFeasibleSpeed returns the lowest speed level at which `active` servers
// can legally carry lambda under the γ cap.
func minFeasibleSpeed(t *testing.T, sc *sim.Scenario, active int, lambda float64) int {
	t.Helper()
	for k := 1; k <= sc.Server.NumSpeeds(); k++ {
		if lambda <= sc.Gamma*float64(active)*sc.Server.Rate(k) {
			return k
		}
	}
	t.Fatalf("no feasible speed for active=%d lambda=%v", active, lambda)
	return 0
}

// parityScenario builds a small scenario with every Ledger extension
// non-default: half-hour slots and the paper's 0.231 kWh toggling cost.
func parityScenario(t *testing.T) *sim.Scenario {
	t.Helper()
	sc, _, err := simtest.Build(simtest.Options{Slots: 4 * 24, N: 60, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	sc.SlotHours = 0.5
	sc.SwitchCostKWh = 0.231
	return sc
}

// runController drives a Controller over the scenario's environment with
// the scripted solutions, stepping and settling slot by slot.
func runController(t *testing.T, sc *sim.Scenario, cluster *dcmodel.Cluster, sols []dcmodel.Solution) []core.SlotOutcome {
	t.Helper()
	solver := &scriptedSolver{sols: sols}
	ctl, err := core.NewController(cluster, sc.Beta,
		lyapunov.ConstantV(1e5, 1, sc.Slots),
		sc.Portfolio.Alpha, sc.Portfolio.RECPerSlotKWh(sc.Slots), solver)
	if err != nil {
		t.Fatal(err)
	}
	ctl.SlotHours = sc.SlotHours
	ctl.SwitchCostKWh = sc.SwitchCostKWh

	outs := make([]core.SlotOutcome, 0, sc.Slots)
	for ts := 0; ts < sc.Slots; ts++ {
		solver.next = ts
		env := core.SlotEnv{
			LambdaRPS:      sc.Workload.Values[ts],
			OnsiteKW:       sc.Portfolio.OnsiteKW.Values[ts],
			PriceUSDPerKWh: sc.Price.Values[ts],
		}
		out, err := ctl.Step(env)
		if err != nil {
			t.Fatalf("controller slot %d: %v", ts, err)
		}
		// An abandoned Step must be repeatable bit-for-bit: state only
		// moves on Settle.
		retry, err := ctl.Step(env)
		if err != nil {
			t.Fatalf("controller retry slot %d: %v", ts, err)
		}
		if retry.Cost != out.Cost || retry.Queue != out.Queue || retry.Active != out.Active {
			t.Fatalf("slot %d: retried Step diverged: %+v vs %+v", ts, retry, out)
		}
		ctl.Settle(out, sc.Portfolio.OffsiteKWh.Values[ts])
		outs = append(outs, out)
	}
	return outs
}

// compareSlot checks one controller outcome against the sim record.
func compareSlot(t *testing.T, ts int, rec sim.SlotRecord, out core.SlotOutcome, tol float64) {
	t.Helper()
	check := func(name string, sim, ctl float64) {
		t.Helper()
		if tol == 0 {
			if sim != ctl {
				t.Fatalf("slot %d %s: sim %v != controller %v", ts, name, sim, ctl)
			}
			return
		}
		if diff := math.Abs(sim - ctl); diff > tol*math.Max(1, math.Abs(sim)) {
			t.Fatalf("slot %d %s: sim %v vs controller %v (diff %v)", ts, name, sim, ctl, diff)
		}
	}
	check("PowerKW", rec.PowerKW, out.Cost.PowerKW)
	check("EnergyKWh", rec.EnergyKWh, out.Cost.EnergyKWh)
	check("GridKWh", rec.GridKWh, out.Cost.GridKWh)
	check("ElectricityUSD", rec.ElectricityUSD, out.Cost.ElectricityUSD)
	check("DelayUSD", rec.DelayUSD, out.Cost.DelayUSD)
	check("SwitchUSD", rec.SwitchUSD, out.Cost.SwitchUSD)
	check("TotalUSD", rec.TotalUSD, out.Cost.TotalUSD)
}

// TestControllerSimCostParitySingleGroup: on a single-group cluster with
// the whole fleet active, the controller's accounting must match the sim
// engine bit for bit — including the nonzero slot-0 switching charge
// (0 → N servers) and the half-hour energy conversion.
func TestControllerSimCostParitySingleGroup(t *testing.T) {
	sc := parityScenario(t)

	plan := make([]sim.Config, sc.Slots)
	sols := make([]dcmodel.Solution, sc.Slots)
	for ts := 0; ts < sc.Slots; ts++ {
		lambda := sc.Workload.Values[ts]
		k := minFeasibleSpeed(t, sc, sc.N, lambda)
		plan[ts] = sim.Config{Speed: k, Active: sc.N}
		sols[ts] = dcmodel.Solution{Speeds: []int{k}, Load: []float64{lambda}}
	}

	res, err := sim.Run(sc, &scheduledPolicy{plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	cluster := &dcmodel.Cluster{
		Groups: []dcmodel.Group{{Type: sc.Server, N: sc.N}},
		Gamma:  sc.Gamma, PUE: sc.PUE,
	}
	outs := runController(t, sc, cluster, sols)

	if outs[0].Cost.SwitchUSD == 0 {
		t.Fatal("slot 0 switching charge (0 -> N) should be nonzero")
	}
	queue := lyapunov.NewDeficitQueue(sc.Portfolio.Alpha, sc.Portfolio.RECPerSlotKWh(sc.Slots))
	for ts, rec := range res.Records {
		compareSlot(t, ts, rec, outs[ts], 0)
		// The controller's queue must follow the same Eq. (17) trajectory
		// as one fed directly from the sim records.
		q := queue.Update(rec.GridKWh, rec.OffsiteKWh)
		if ts+1 < len(outs) && outs[ts+1].Queue != q {
			t.Fatalf("slot %d: controller queue %v, want %v", ts+1, outs[ts+1].Queue, q)
		}
	}
}

// TestControllerSimCostParityToggling splits the fleet into two equal
// groups and turns one off on alternating slots, mirroring a sim run whose
// active count toggles N ↔ N/2 — so nonzero switching charges appear
// throughout the run, not just at slot 0. Splitting the load across groups
// reassociates the floating-point sums, so parity is checked to 1e-9
// relative instead of bitwise.
func TestControllerSimCostParityToggling(t *testing.T) {
	sc := parityScenario(t)
	half := sc.N / 2

	plan := make([]sim.Config, sc.Slots)
	sols := make([]dcmodel.Solution, sc.Slots)
	for ts := 0; ts < sc.Slots; ts++ {
		lambda := sc.Workload.Values[ts]
		active := sc.N
		if ts%2 == 1 && lambda <= sc.Gamma*float64(half)*sc.Server.MaxRate() {
			active = half
		}
		k := minFeasibleSpeed(t, sc, active, lambda)
		plan[ts] = sim.Config{Speed: k, Active: active}
		if active == sc.N {
			sols[ts] = dcmodel.Solution{
				Speeds: []int{k, k},
				Load:   []float64{lambda / 2, lambda / 2},
			}
		} else {
			sols[ts] = dcmodel.Solution{Speeds: []int{k, 0}, Load: []float64{lambda, 0}}
		}
	}

	res, err := sim.Run(sc, &scheduledPolicy{plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	cluster := &dcmodel.Cluster{
		Groups: []dcmodel.Group{
			{Type: sc.Server, N: half},
			{Type: sc.Server, N: sc.N - half},
		},
		Gamma: sc.Gamma, PUE: sc.PUE,
	}
	outs := runController(t, sc, cluster, sols)

	switches := 0
	for ts, rec := range res.Records {
		compareSlot(t, ts, rec, outs[ts], 1e-9)
		if ts > 0 && outs[ts].Cost.SwitchUSD > 0 {
			switches++
		}
	}
	if switches == 0 {
		t.Fatal("toggling run never charged mid-run switching cost")
	}
}
