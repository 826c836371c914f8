package gsd

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"
)

// slotSequence solves a fixed series of slot problems on s and returns the
// chosen speed vectors.
func slotSequence(t *testing.T, s *Solver, lambdas []float64) [][]int {
	t.Helper()
	out := make([][]int, len(lambdas))
	for i, l := range lambdas {
		sol, err := s.Solve(smallProblem(4, l))
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		out[i] = append([]int(nil), sol.Speeds...)
	}
	return out
}

// TestSolverCheckpointResumeParity pins the tentpole invariant at the
// solver layer: running N slots straight through equals running N/2,
// snapshotting through JSON, restoring into a freshly constructed solver,
// and running the rest — the advancing seed and warm start are the
// solver's only cross-slot state.
func TestSolverCheckpointResumeParity(t *testing.T) {
	lambdas := []float64{60, 45, 70, 30, 55, 62, 48, 66}
	opts := Options{Delta: 1e4, MaxIters: 250, Seed: 17}

	full := &Solver{Opts: opts}
	want := slotSequence(t, full, lambdas)

	half := &Solver{Opts: opts}
	got := slotSequence(t, half, lambdas[:4])
	blob, err := json.Marshal(half.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	var ck SolverCheckpoint
	if err := json.Unmarshal(blob, &ck); err != nil {
		t.Fatal(err)
	}
	resumed := &Solver{Opts: opts}
	if err := resumed.RestoreFrom(ck); err != nil {
		t.Fatal(err)
	}
	got = append(got, slotSequence(t, resumed, lambdas[4:])...)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed solve sequence diverges:\ngot  %v\nwant %v", got, want)
	}
}

// TestSolverCheckpointStateJSON exercises the core.SolverState surface and
// the checkpoint's defensive copies.
func TestSolverCheckpointStateJSON(t *testing.T) {
	s := &Solver{Opts: Options{Delta: 1e4, MaxIters: 150, Seed: 3}}
	if _, err := s.Solve(smallProblem(3, 40)); err != nil {
		t.Fatal(err)
	}
	blob, err := s.CheckpointState()
	if err != nil {
		t.Fatal(err)
	}
	ck := s.Checkpoint()
	if !ck.Started || len(ck.Warm) != 3 {
		t.Fatalf("checkpoint after one solve = %+v", ck)
	}
	// Mutating the snapshot must not reach into the solver.
	ck.Warm[0] = 99
	if s.Checkpoint().Warm[0] == 99 {
		t.Fatal("Checkpoint aliases the solver's warm vector")
	}

	fresh := &Solver{Opts: s.Opts}
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Checkpoint(); !reflect.DeepEqual(got, s.Checkpoint()) {
		t.Fatalf("restored state %+v, want %+v", got, s.Checkpoint())
	}

	if err := fresh.RestoreState([]byte("{")); err == nil {
		t.Fatal("RestoreState accepted malformed JSON")
	}
	if err := fresh.RestoreFrom(SolverCheckpoint{Version: 7}); err == nil {
		t.Fatal("RestoreFrom accepted an unknown version")
	}
	if err := fresh.RestoreFrom(SolverCheckpoint{Version: SolverCheckpointVersion, Warm: []int{-1}}); err == nil {
		t.Fatal("RestoreFrom accepted a negative warm speed")
	}
}

// FuzzSolverRestore feeds arbitrary bytes to RestoreState. Each input must
// be refused with an error, or restore a state that round-trips exactly
// through Checkpoint and survives one Solve on a small fixed cluster, where
// a warm vector that cannot seed the slot (stale length, out-of-range
// speed, too little capacity) shows up as Stats.ColdFallback.
func FuzzSolverRestore(f *testing.F) {
	opts := Options{Delta: 1e4, MaxIters: 30, Seed: 3}
	p := smallProblem(4, 60)
	s := &Solver{Opts: opts}
	if _, err := s.Solve(p); err != nil {
		f.Fatal(err)
	}
	blob, err := s.CheckpointState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{"version":1,"started":true,"seed":7,"warm":[99,99,99,99]}`))
	f.Add([]byte(`{"version":1,"started":true,"seed":7,"warm":[1,1]}`))
	f.Add([]byte(`{"version":1,"started":true,"seed":0,"warm":[0,0,0,0]}`))
	f.Add([]byte(`{"version":1,"started":false,"seed":18446744073709551615,"warm":[]}`))
	f.Add([]byte(`{"version":1,"warm":[1,-1,1,1]}`))
	f.Add([]byte(`{"version":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Solver{Opts: opts}
		if s.RestoreState(data) != nil {
			return
		}
		var in SolverCheckpoint
		if err := json.Unmarshal(data, &in); err != nil {
			t.Fatalf("RestoreState accepted what json.Unmarshal refuses: %v", err)
		}
		got := s.Checkpoint()
		if got.Version != SolverCheckpointVersion || got.Started != in.Started || got.Seed != in.Seed ||
			!slices.Equal(got.Warm, in.Warm) {
			t.Fatalf("restore round trip: got %+v, restored %+v", got, in)
		}
		state, err := s.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		again := &Solver{Opts: opts}
		if err := again.RestoreState(state); err != nil {
			t.Fatalf("a checkpoint does not restore: %v", err)
		}
		if state2, err := again.CheckpointState(); err != nil || !bytes.Equal(state2, state) {
			t.Fatalf("checkpoint round trip: %s, then %s (%v)", state, state2, err)
		}

		warm := opts
		warm.InitSpeeds = in.Warm
		_, initErr := newEngine(p, warm)
		wantCold := in.Started && len(in.Warm) > 0 && errors.Is(initErr, ErrInfeasibleInit)
		sol, st, err := s.solve(p)
		if err != nil {
			t.Fatalf("Solve after restore: %v", err)
		}
		if st.ColdFallback != wantCold {
			t.Fatalf("warm %v (started %v): ColdFallback %v, want %v", in.Warm, in.Started, st.ColdFallback, wantCold)
		}
		if err := p.Cluster.CheckConfig(sol.Speeds, sol.Load); err != nil {
			t.Fatalf("Solve after restore: %v", err)
		}
	})
}
