package core

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/lyapunov"
)

func ckptCluster(nGroups int) *dcmodel.Cluster {
	groups := make([]dcmodel.Group, nGroups)
	for i := range groups {
		groups[i] = dcmodel.Group{Type: dcmodel.Opteron(), N: 5}
	}
	return &dcmodel.Cluster{Groups: groups, Gamma: 0.95, PUE: 1}
}

func ckptController(t *testing.T, slots int) *Controller {
	t.Helper()
	c, err := NewController(ckptCluster(3), 0.02, lyapunov.ConstantV(5e5, 2, slots/2),
		1.0, 3.0, &gsd.Solver{Opts: gsd.Options{Delta: 1e4, MaxIters: 200, Seed: 23}})
	if err != nil {
		t.Fatal(err)
	}
	c.SwitchCostKWh = 0.231
	return c
}

// ckptEnv synthesizes a deterministic slot environment.
func ckptEnv(t int) (SlotEnv, float64) {
	ft := float64(t)
	env := SlotEnv{
		LambdaRPS:      30 + 15*math.Sin(ft/3),
		OnsiteKW:       math.Max(0, 2*math.Sin(ft/5)),
		PriceUSDPerKWh: 0.06 + 0.02*math.Cos(ft/4),
	}
	return env, math.Max(0, 1.5+math.Sin(ft/6))
}

// driveController steps-and-settles the controller over [from, to) and
// returns the outcomes.
func driveController(t *testing.T, c *Controller, from, to int) []SlotOutcome {
	t.Helper()
	out := make([]SlotOutcome, 0, to-from)
	for i := from; i < to; i++ {
		env, offsite := ckptEnv(i)
		o, err := c.Step(env)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		c.Settle(o, offsite)
		out = append(out, o)
	}
	return out
}

// TestControllerCheckpointResumeParity is the acceptance invariant at the
// controller layer: a run interrupted at slot N and restored through a
// JSON round-trip produces bit-identical decisions, costs and deficit-queue
// trajectory to an uninterrupted run.
func TestControllerCheckpointResumeParity(t *testing.T) {
	const slots = 12

	want := driveController(t, ckptController(t, slots), 0, slots)

	first := ckptController(t, slots)
	got := driveController(t, first, 0, slots/2)
	ck, err := first.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var restoredCk ControllerCheckpoint
	if err := json.Unmarshal(blob, &restoredCk); err != nil {
		t.Fatal(err)
	}
	second := ckptController(t, slots)
	if err := second.RestoreFrom(restoredCk); err != nil {
		t.Fatal(err)
	}
	if second.Slot() != slots/2 {
		t.Fatalf("restored slot cursor %d, want %d", second.Slot(), slots/2)
	}
	if second.Queue() != first.Queue() {
		t.Fatalf("restored queue %v, want %v", second.Queue(), first.Queue())
	}
	got = append(got, driveController(t, second, slots/2, slots)...)

	if len(got) != len(want) {
		t.Fatalf("%d outcomes, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("slot %d diverges after restore:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestControllerScheduleExhausted pins the daemon-facing failure mode: a
// Step past the schedule horizon returns ErrScheduleExhausted instead of
// panicking inside VSchedule.
func TestControllerScheduleExhausted(t *testing.T) {
	const slots = 4
	c := ckptController(t, slots)
	driveController(t, c, 0, slots)
	env, _ := ckptEnv(slots)
	if _, err := c.Step(env); !errors.Is(err, ErrScheduleExhausted) {
		t.Fatalf("Step past horizon = %v, want ErrScheduleExhausted", err)
	}
}

func TestControllerCheckpointRejectsInvalid(t *testing.T) {
	c := ckptController(t, 12)
	driveController(t, c, 0, 3)
	valid, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*ControllerCheckpoint){
		"version":     func(ck *ControllerCheckpoint) { ck.Version = 0 },
		"slot":        func(ck *ControllerCheckpoint) { ck.Slot = -1 },
		"prev-active": func(ck *ControllerCheckpoint) { ck.PrevActive = -2 },
		"prev-active-above-fleet": func(ck *ControllerCheckpoint) {
			ck.PrevActive = ckptCluster(3).TotalServers() + 1
		},
		"queue":       func(ck *ControllerCheckpoint) { ck.Queue.Alpha = -1 },
		"solver-blob": func(ck *ControllerCheckpoint) { ck.Solver = []byte("{") },
	}
	for name, mutate := range cases {
		ck := valid
		mutate(&ck)
		if err := ckptController(t, 12).RestoreFrom(ck); err == nil {
			t.Errorf("%s: RestoreFrom accepted an invalid checkpoint", name)
		}
	}
}

// TestPolicyCheckpointRoundTrip covers the sim-side policy snapshot; the
// full engine-resume parity lives in internal/simtest.
func TestPolicyCheckpointRoundTrip(t *testing.T) {
	sc := buildScenario(t, 24)
	newPolicy := func() *Policy {
		p, err := New(FromScenario(sc, lyapunov.ConstantV(5e5, 1, 24)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := newPolicy()
	p.queue.Update(100, 10)
	p.prevActive, p.pendingActive = 7, 7

	blob, err := json.Marshal(p.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	var ck PolicyCheckpoint
	if err := json.Unmarshal(blob, &ck); err != nil {
		t.Fatal(err)
	}
	q := newPolicy()
	if err := q.RestoreFrom(ck); err != nil {
		t.Fatal(err)
	}
	if q.Queue() != p.Queue() || q.prevActive != 7 || q.pendingActive != 7 {
		t.Fatalf("restored policy state queue=%v prev=%d pending=%d", q.Queue(), q.prevActive, q.pendingActive)
	}
	if err := q.RestoreFrom(PolicyCheckpoint{Version: 2, Queue: ck.Queue}); err == nil {
		t.Fatal("RestoreFrom accepted an unknown version")
	}
	other := ck
	other.Queue.Z = math.Nextafter(ck.Queue.Z, math.Inf(1))
	if err := newPolicy().RestoreFrom(other); err == nil {
		t.Fatal("RestoreFrom adopted a checkpoint's REC allowance")
	}
}

// TestRestoreRefusesActiveOutsideFleet: a switching anchor above the fleet
// (or below zero) is refused with ErrActiveOutsideFleet and leaves the
// state as it was; the fleet itself is accepted. Policy's fleet is the
// scenario's N, Controller's the cluster's servers.
func TestRestoreRefusesActiveOutsideFleet(t *testing.T) {
	sc := buildScenario(t, 24)
	p, err := New(FromScenario(sc, lyapunov.ConstantV(5e5, 1, 24)))
	if err != nil {
		t.Fatal(err)
	}
	p.prevActive, p.pendingActive = 7, 7
	pck := p.Checkpoint()
	c := ckptController(t, 12)
	driveController(t, c, 0, 3)
	cck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fleet := c.Cluster.TotalServers()
	prev := c.prevActive
	for _, tc := range []struct {
		active, fleet int
	}{{-1, -1}, {sc.N + 1, fleet + 1}, {sc.N + 150, fleet + 150}} {
		ck := pck
		ck.PrevActive = tc.active
		if err := p.RestoreFrom(ck); !errors.Is(err, ErrActiveOutsideFleet) {
			t.Errorf("policy prev_active %d (N = %d): RestoreFrom = %v, want ErrActiveOutsideFleet", tc.active, sc.N, err)
		}
		cc := cck
		cc.PrevActive = tc.fleet
		if err := c.RestoreFrom(cc); !errors.Is(err, ErrActiveOutsideFleet) {
			t.Errorf("controller prev_active %d (fleet %d): RestoreFrom = %v, want ErrActiveOutsideFleet", tc.fleet, fleet, err)
		}
	}
	if p.prevActive != 7 || p.pendingActive != 7 || c.prevActive != prev {
		t.Fatalf("a refused restore moved the anchor: policy %d/%d, controller %d", p.prevActive, p.pendingActive, c.prevActive)
	}
	pck.PrevActive, cck.PrevActive = sc.N, fleet
	if err := p.RestoreFrom(pck); err != nil {
		t.Errorf("policy prev_active = N: %v", err)
	}
	if err := c.RestoreFrom(cck); err != nil {
		t.Errorf("controller prev_active = fleet: %v", err)
	}
}

// TestRestoreRefusesOtherQueueParams: α and z are construction parameters.
// A controller built with α = 0.5, z = 3 must refuse a checkpoint written
// at α = 1, z = 2 rather than silently run at the checkpoint's values, and
// the error names both.
func TestRestoreRefusesOtherQueueParams(t *testing.T) {
	build := func(alpha, z float64) *Controller {
		c, err := NewController(ckptCluster(3), 0.02, lyapunov.ConstantV(5e5, 2, 6),
			alpha, z, &gsd.Solver{Opts: gsd.Options{Delta: 1e4, MaxIters: 200, Seed: 23}})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	old := build(1, 2)
	driveController(t, old, 0, 3)
	ck, err := old.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	c := build(0.5, 3)
	err = c.RestoreFrom(ck)
	if err == nil {
		t.Fatal("restore adopted the checkpoint's alpha and z")
	}
	for _, want := range []string{"alpha 1", "z 2", "alpha 0.5", "z 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if c.Slot() != 0 || c.Queue() != 0 {
		t.Errorf("refused restore moved state: slot %d, queue %v", c.Slot(), c.Queue())
	}
	if err := build(1, 2).RestoreFrom(ck); err != nil {
		t.Fatalf("matching restore refused: %v", err)
	}
}

// fuzzController is the GSD-backed controller FuzzControllerRestore feeds
// checkpoints into: the six-group heterogeneous cluster of
// TestControllerWithGSD, over two 6-slot frames.
func fuzzController(t testing.TB) *Controller {
	c, err := NewController(dcmodel.HeterogeneousCluster(60, 6), 0.01, lyapunov.ConstantV(1e4, 2, 6),
		1, 0.5, &gsd.Solver{Opts: gsd.Options{Delta: 1e6, MaxIters: 60, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// FuzzControllerRestore feeds arbitrary checkpoint JSON into a GSD-backed
// controller. Each input must be rejected with an error, or restore state
// that checkpoints back to the same values and survives one Step: a valid
// configuration, or ErrScheduleExhausted past the horizon, never a panic.
func FuzzControllerRestore(f *testing.F) {
	c := fuzzController(f)
	for i := 0; i < 3; i++ {
		env, offsite := ckptEnv(i)
		out, err := c.Step(env)
		if err != nil {
			f.Fatal(err)
		}
		c.Settle(out, offsite)
	}
	ck, err := c.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	blob, err := json.Marshal(ck)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	// A warm vector whose speeds no group has once panicked the next Step.
	f.Add([]byte(`{"version":1,"slot":0,"prev_active":0,"queue":{"version":1,"q":0,"alpha":1,"z":0.5},` +
		`"solver":{"version":1,"started":true,"seed":7,"warm":[99,99,99,99,99,99]}}`))
	f.Add([]byte(`{"version":1,"slot":11,"prev_active":60,"queue":{"version":1,"q":1e308,"alpha":1,"z":0.5}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ck ControllerCheckpoint
		if json.Unmarshal(data, &ck) != nil {
			return
		}
		c := fuzzController(t)
		if c.RestoreFrom(ck) != nil {
			return
		}
		got, err := c.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if got.Slot != ck.Slot || got.PrevActive != ck.PrevActive || !sameQueue(got.Queue, ck.Queue) {
			t.Fatalf("restore round trip: got %+v, restored %+v", got, ck)
		}
		if len(ck.Solver) > 0 {
			var want, have gsd.SolverCheckpoint
			if err := json.Unmarshal(ck.Solver, &want); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(got.Solver, &have); err != nil {
				t.Fatal(err)
			}
			if have.Started != want.Started || have.Seed != want.Seed || !slices.Equal(have.Warm, want.Warm) {
				t.Fatalf("solver round trip: got %+v, restored %+v", have, want)
			}
		}
		env, _ := ckptEnv(ck.Slot % 24)
		out, err := c.Step(env)
		if errors.Is(err, ErrScheduleExhausted) {
			return
		}
		if err != nil {
			t.Fatalf("Step after restore: %v", err)
		}
		if err := c.Cluster.CheckConfig(out.Solution.Speeds, out.Solution.Load); err != nil {
			t.Fatalf("Step after restore: %v", err)
		}
	})
}

// sameQueue compares two queue checkpoints bit for bit.
func sameQueue(a, b lyapunov.QueueCheckpoint) bool {
	return a.Version == b.Version && math.Float64bits(a.Q) == math.Float64bits(b.Q) &&
		math.Float64bits(a.Alpha) == math.Float64bits(b.Alpha) && math.Float64bits(a.Z) == math.Float64bits(b.Z)
}
