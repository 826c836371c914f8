package gsd

import (
	"errors"
	"testing"

	"repro/internal/telemetry"
)

// TestSolverWarmStartSurvivesClusterResize pins the state-desync bugfix:
// a warm-start vector left over from a differently sized cluster (resize
// or failure between slots) must degrade to the all-top-speed cold start
// instead of failing the slot with a length-mismatch error.
func TestSolverWarmStartSurvivesClusterResize(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := telemetry.NewSolveMetrics(reg, "gsd")
	s := &Solver{Opts: Options{Delta: 1e4, MaxIters: 200, Seed: 11, Metrics: m}}

	// Slot 1 on a 4-group cluster seeds a 4-entry warm start.
	if _, err := s.Solve(smallProblem(4, 60)); err != nil {
		t.Fatal(err)
	}
	// Slot 2: the cluster shrank to 3 groups; the stale warm start must
	// be dropped, not returned as an InitSpeeds length error.
	sol, err := s.Solve(smallProblem(3, 40))
	if err != nil {
		t.Fatalf("resized-cluster solve failed: %v", err)
	}
	if len(sol.Speeds) != 3 {
		t.Fatalf("solution has %d speed entries, want 3", len(sol.Speeds))
	}
	if got := m.ColdFallbacks.Value(); got != 1 {
		t.Fatalf("cold fallbacks = %v, want 1", got)
	}
	// Slot 3: back to normal operation on the new size, warm start now
	// lines up again.
	if _, err := s.Solve(smallProblem(3, 40)); err != nil {
		t.Fatalf("follow-up solve failed: %v", err)
	}
	if got := m.ColdFallbacks.Value(); got != 1 {
		t.Fatalf("cold fallbacks after recovery = %v, want still 1", got)
	}
}

// TestSolverWarmStartGrownClusterFallsBack covers the opposite resize.
func TestSolverWarmStartGrownClusterFallsBack(t *testing.T) {
	s := &Solver{Opts: Options{Delta: 1e4, MaxIters: 200, Seed: 5}}
	if _, err := s.Solve(smallProblem(2, 30)); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(smallProblem(5, 80))
	if err != nil {
		t.Fatalf("grown-cluster solve failed: %v", err)
	}
	if len(sol.Speeds) != 5 {
		t.Fatalf("solution has %d speed entries, want 5", len(sol.Speeds))
	}
}

// TestOutOfRangeInitSpeedsRejected: a speed outside [0, NumSpeeds], as a
// corrupt restored warm vector can carry, is ErrInfeasibleInit rather than
// an index panic. A direct Solve returns the error; a Solver falls back to
// a cold start and counts it.
func TestOutOfRangeInitSpeedsRejected(t *testing.T) {
	p := smallProblem(4, 60)
	for _, bad := range [][]int{{99, 99, 99, 99}, {1, -1, 1, 1}} {
		if _, err := Solve(p, Options{Delta: 1e4, MaxIters: 50, InitSpeeds: bad}); !errors.Is(err, ErrInfeasibleInit) {
			t.Errorf("InitSpeeds %v: Solve = %v, want ErrInfeasibleInit", bad, err)
		}
	}
	reg := telemetry.NewRegistry()
	m := telemetry.NewSolveMetrics(reg, "gsd")
	s := &Solver{Opts: Options{Delta: 1e4, MaxIters: 50, Seed: 3, Metrics: m}}
	if err := s.RestoreFrom(SolverCheckpoint{Version: SolverCheckpointVersion, Started: true, Seed: 9, Warm: []int{99, 99, 99, 99}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(p); err != nil {
		t.Fatalf("Solve after an out-of-range warm vector: %v", err)
	}
	if got := m.ColdFallbacks.Value(); got != 1 {
		t.Fatalf("cold fallbacks = %v, want 1", got)
	}
}

// TestSolveMetricsInstrumentation checks the GSD instrumentation points:
// iteration and acceptance totals, patience exits and wall-time samples.
func TestSolveMetricsInstrumentation(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := telemetry.NewSolveMetrics(reg, "gsd")
	p := smallProblem(3, 40)

	res, err := Solve(p, Options{Delta: 1e4, MaxIters: 300, Seed: 7, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Solves.Value(); got != 1 {
		t.Fatalf("solves = %v", got)
	}
	if got := m.Iterations.Value(); got != float64(res.Stats.Iters) {
		t.Fatalf("iterations = %v, want %v", got, res.Stats.Iters)
	}
	if got := m.Accepted.Value(); got != float64(res.Stats.Accepted) {
		t.Fatalf("accepted = %v, want %v", got, res.Stats.Accepted)
	}
	if m.SolveSeconds.Snapshot().Count != 1 || m.ItersPerRun.Snapshot().Count != 1 {
		t.Fatal("wall-time/iteration histograms missed the solve")
	}

	// A tight patience budget must register an early exit.
	res2, err := Solve(p, Options{Delta: 1e4, MaxIters: 100000, Patience: 20, Seed: 7, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Iters >= 100000 {
		t.Fatalf("patience did not stop the run (%d iters)", res2.Stats.Iters)
	}
	if got := m.PatienceExits.Value(); got != 1 {
		t.Fatalf("patience exits = %v, want 1", got)
	}
}

// TestDistributedMetricsInstrumentation mirrors the check for the
// message-passing engine.
func TestDistributedMetricsInstrumentation(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := telemetry.NewSolveMetrics(reg, "gsd")
	p := smallProblem(3, 40)
	res, err := SolveDistributed(p, Options{Delta: 1e4, MaxIters: 60, Seed: 9, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Iterations.Value(); got != float64(res.Stats.Iters) {
		t.Fatalf("iterations = %v, want %v", got, res.Stats.Iters)
	}
	if got := m.Solves.Value(); got != 1 {
		t.Fatalf("solves = %v", got)
	}
}
