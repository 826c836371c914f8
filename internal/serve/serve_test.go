package serve

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/lyapunov"
	"repro/internal/telemetry"
)

// testService builds a deterministic service: a 3-group Opteron cluster, a
// 312-slot V schedule and a seeded GSD solver. Every call builds an
// identical instance, which is what checkpoint/restore parity needs.
func testService(t testing.TB) *Service {
	t.Helper()
	groups := make([]dcmodel.Group, 3)
	for i := range groups {
		groups[i] = dcmodel.Group{Type: dcmodel.Opteron(), N: 5}
	}
	cluster := &dcmodel.Cluster{Groups: groups, Gamma: 0.95, PUE: 1.1}
	ctrl, err := core.NewController(cluster, 0.02, lyapunov.ConstantV(5e5, 13, 24),
		1.0, 2.0, &gsd.Solver{Opts: gsd.Options{Delta: 1e4, MaxIters: 150, Seed: 41}})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SwitchCostKWh = 0.231
	return New(ctrl)
}

// testSlots returns the deterministic observation stream scaled to the
// test cluster.
func testSlots(t testing.TB, start, count int) []SlotInput {
	t.Helper()
	groups := make([]dcmodel.Group, 3)
	for i := range groups {
		groups[i] = dcmodel.Group{Type: dcmodel.Opteron(), N: 5}
	}
	cluster := &dcmodel.Cluster{Groups: groups, Gamma: 0.95, PUE: 1.1}
	peak := 0.5 * 0.95 * cluster.MaxCapacityRPS()
	return SyntheticSlots(7, start, count, peak, 2.0, 1.5)
}

func drive(t *testing.T, s *Service, slots []SlotInput) []Decision {
	t.Helper()
	out := make([]Decision, len(slots))
	for i, in := range slots {
		d, err := s.Step(in)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		out[i] = d
	}
	return out
}

// TestServiceCheckpointRestartParity is the acceptance pin: 300 slots
// straight through must equal 150 slots + checkpoint (through JSON) +
// restart into a freshly built service + 150 more — decision by decision,
// and on the final FNV-1a state hash.
func TestServiceCheckpointRestartParity(t *testing.T) {
	slots := testSlots(t, 0, 300)

	ref := testService(t)
	want := drive(t, ref, slots)

	first := testService(t)
	got := drive(t, first, slots[:150])
	ck, err := first.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	var restored Checkpoint
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatal(err)
	}
	second := testService(t)
	if err := second.RestoreFrom(restored); err != nil {
		t.Fatal(err)
	}
	st := second.State()
	if st.Slot != 150 || !st.Restored {
		t.Fatalf("restored state = %+v, want slot 150, restored", st)
	}
	got = append(got, drive(t, second, slots[150:])...)

	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("decision %d diverges after restart:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
	refState, gotState := ref.State(), second.State()
	if refState.Hash != gotState.Hash {
		t.Fatalf("final state hash %s, uninterrupted %s", gotState.Hash, refState.Hash)
	}
	if refState.TotalUSD != gotState.TotalUSD || refState.GridKWh != gotState.GridKWh {
		t.Fatalf("cumulative accounting diverges: %+v vs %+v", gotState, refState)
	}
}

func TestServiceRejectsBadInput(t *testing.T) {
	s := testService(t)
	cases := []SlotInput{
		{LambdaRPS: -1},
		{LambdaRPS: 10, OnsiteKW: -3},
		{LambdaRPS: 10, OffsiteKWh: -1},
	}
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg, "serve")
	s.Instrument(m)
	for i, in := range cases {
		if _, err := s.Step(in); !errors.Is(err, ErrBadInput) {
			t.Errorf("case %d: err = %v, want ErrBadInput", i, err)
		}
	}
	if got := m.Rejected.Value(); got != float64(len(cases)) {
		t.Fatalf("rejected counter = %v, want %d", got, len(cases))
	}
	if got := m.Slots.Value(); got != 0 {
		t.Fatalf("slots counter = %v after only rejects", got)
	}
	// A rejected slot leaves the state untouched: hash is still the seed.
	if st := s.State(); st.Slot != 0 || st.TotalUSD != 0 {
		t.Fatalf("state moved on rejected input: %+v", st)
	}
}

func TestServiceScheduleExhausted(t *testing.T) {
	groups := []dcmodel.Group{{Type: dcmodel.Opteron(), N: 5}}
	cluster := &dcmodel.Cluster{Groups: groups, Gamma: 0.95, PUE: 1}
	ctrl, err := core.NewController(cluster, 0.02, lyapunov.ConstantV(5e5, 1, 2),
		1.0, 2.0, &gsd.Solver{Opts: gsd.Options{Delta: 1e4, MaxIters: 80, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s := New(ctrl)
	in := SlotInput{LambdaRPS: 5, PriceUSDPerKWh: 0.06}
	for i := 0; i < 2; i++ {
		if _, err := s.Step(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Step(in); !errors.Is(err, core.ErrScheduleExhausted) {
		t.Fatalf("step past horizon = %v, want ErrScheduleExhausted", err)
	}
}

// TestServiceConcurrentAccess exercises the lock discipline under -race:
// concurrent ingestors, state readers and checkpointers. Decisions are
// serialized, so the settled count must equal the sum of successful steps.
func TestServiceConcurrentAccess(t *testing.T) {
	s := testService(t)
	reg := telemetry.NewRegistry()
	s.Instrument(NewMetrics(reg, "serve"))
	slots := testSlots(t, 0, 64)
	var wg sync.WaitGroup
	var mu sync.Mutex
	settled := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 8; i < (w+1)*8; i++ {
				if _, err := s.Step(slots[i]); err == nil {
					mu.Lock()
					settled++
					mu.Unlock()
				}
				_ = s.State()
				if _, err := s.Checkpoint(); err != nil {
					t.Errorf("checkpoint: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.State(); st.Slot != settled {
		t.Fatalf("state slot %d, %d slots settled", st.Slot, settled)
	}
}

// TestServiceOnSettleHook pins the periodic-checkpoint seam.
func TestServiceOnSettleHook(t *testing.T) {
	s := testService(t)
	var seen []int
	s.SetOnSettle(func(slot int) { seen = append(seen, slot) })
	drive(t, s, testSlots(t, 0, 3))
	if want := []int{1, 2, 3}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("onSettle saw %v, want %v", seen, want)
	}
}

func TestCheckpointRestoreRejectsInvalid(t *testing.T) {
	s := testService(t)
	drive(t, s, testSlots(t, 0, 2))
	valid, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	bad := valid
	bad.Version = 3
	if err := testService(t).RestoreFrom(bad); err == nil {
		t.Error("RestoreFrom accepted an unknown version")
	}
	bad = valid
	bad.Slot = valid.Slot + 1
	if err := testService(t).RestoreFrom(bad); err == nil {
		t.Error("RestoreFrom accepted a slot/controller mismatch")
	}
}

// FuzzServiceRestore feeds arbitrary checkpoint JSON, the format cocad
// persists, into a GSD-backed service. Each input must be rejected with an
// error, or restore state that checkpoints back to the same values and
// survives one Step: a decision for the restored slot, or
// ErrScheduleExhausted past the horizon, never a panic.
func FuzzServiceRestore(f *testing.F) {
	s := testService(f)
	for _, in := range testSlots(f, 0, 3) {
		if _, err := s.Step(in); err != nil {
			f.Fatal(err)
		}
	}
	ck, err := s.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	blob, err := json.Marshal(ck)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	// A warm vector whose speeds no group has, and a saturated queue on
	// the schedule's last slot.
	f.Add([]byte(`{"version":1,"slot":0,"total_usd":0,"grid_kwh":0,"hash":1,"controller":{"version":1,"slot":0,"prev_active":0,` +
		`"queue":{"version":1,"q":0,"alpha":1,"z":2},"solver":{"version":1,"started":true,"seed":7,"warm":[99,99,99]}}}`))
	f.Add([]byte(`{"version":1,"slot":311,"total_usd":1e308,"grid_kwh":-5,"hash":18446744073709551615,"controller":{"version":1,` +
		`"slot":311,"prev_active":15,"queue":{"version":1,"q":1e308,"alpha":1,"z":2}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ck Checkpoint
		if json.Unmarshal(data, &ck) != nil {
			return
		}
		s := testService(t)
		if s.RestoreFrom(ck) != nil {
			return
		}
		got, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		gc, cc := got.Controller, ck.Controller
		if got.Version != ck.Version || got.Slot != ck.Slot || got.Hash != ck.Hash ||
			math.Float64bits(got.TotalUSD) != math.Float64bits(ck.TotalUSD) ||
			math.Float64bits(got.GridKWh) != math.Float64bits(ck.GridKWh) ||
			gc.Version != cc.Version || gc.Slot != cc.Slot || gc.PrevActive != cc.PrevActive ||
			gc.Queue.Version != cc.Queue.Version || math.Float64bits(gc.Queue.Q) != math.Float64bits(cc.Queue.Q) ||
			math.Float64bits(gc.Queue.Alpha) != math.Float64bits(cc.Queue.Alpha) ||
			math.Float64bits(gc.Queue.Z) != math.Float64bits(cc.Queue.Z) {
			t.Fatalf("restore round trip: got %+v, restored %+v", got, ck)
		}
		if len(cc.Solver) > 0 {
			var want, have gsd.SolverCheckpoint
			if err := json.Unmarshal(cc.Solver, &want); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(gc.Solver, &have); err != nil {
				t.Fatal(err)
			}
			if have.Started != want.Started || have.Seed != want.Seed || !slices.Equal(have.Warm, want.Warm) {
				t.Fatalf("solver round trip: got %+v, restored %+v", have, want)
			}
		}
		d, err := s.Step(testSlots(t, ck.Slot%312, 1)[0])
		if errors.Is(err, core.ErrScheduleExhausted) {
			return
		}
		if err != nil {
			t.Fatalf("Step after restore: %v", err)
		}
		if st := s.State(); d.Slot != ck.Slot || st.Slot != ck.Slot+1 || len(d.Speeds) != len(s.ctrl.Cluster.Groups) {
			t.Fatalf("Step after restoring slot %d: decision %+v, state %+v", ck.Slot, d, st)
		}
	})
}

// TestSyntheticSlotsPositionAddressable pins the generator contract the
// restart smoke depends on: slots [150, 300) of one stream equal a fresh
// stream started at 150.
func TestSyntheticSlotsPositionAddressable(t *testing.T) {
	all := SyntheticSlots(7, 0, 300, 100, 2, 1.5)
	tail := SyntheticSlots(7, 150, 150, 100, 2, 1.5)
	if !reflect.DeepEqual(all[150:], tail) {
		t.Fatal("suffix of the stream diverges from a stream started at the cut")
	}
	for i, in := range all {
		if err := in.Validate(); err != nil {
			t.Fatalf("slot %d invalid: %v", i, err)
		}
	}
}

// TestSyntheticSlotsNonPositiveCount pins the clamp: a zero or negative
// count is an empty stream, never a make() panic.
func TestSyntheticSlotsNonPositiveCount(t *testing.T) {
	if got := SyntheticSlots(7, 0, 0, 100, 2, 1.5); len(got) != 0 {
		t.Fatalf("count=0 returned %d slots", len(got))
	}
	if got := SyntheticSlots(7, 10, -3, 100, 2, 1.5); len(got) != 0 {
		t.Fatalf("count=-3 returned %d slots", len(got))
	}
}

// TestSyntheticSlotsNegativeStartPhase pins the diurnal wrap-around for
// windows starting before the epoch: the solar curve is a pure function of
// the hour-of-day (no jitter), so slots [-24, 0) must carry exactly the
// on-site values of slots [0, 24). Go's native t%24 is negative for
// negative t and used to shift the phase off the 24h grid.
func TestSyntheticSlotsNegativeStartPhase(t *testing.T) {
	before := SyntheticSlots(7, -24, 24, 100, 2, 1.5)
	after := SyntheticSlots(7, 0, 24, 100, 2, 1.5)
	for i := range before {
		if before[i].OnsiteKW != after[i].OnsiteKW {
			t.Fatalf("hour %d: onsite %v before epoch vs %v after — diurnal phase broken for negative slots",
				i, before[i].OnsiteKW, after[i].OnsiteKW)
		}
	}
}
