package gsd

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestSolverDoesNotMutateOpts pins the satellite fix: Solve must leave the
// caller's Options untouched (no seed advance, no warm-start write), so a
// Solver value can be rebuilt or compared against its literal.
func TestSolverDoesNotMutateOpts(t *testing.T) {
	opts := Options{Delta: 1e4, MaxIters: 200, Seed: 11}
	s := &Solver{Opts: opts}
	p := smallProblem(3, 40)
	for i := 0; i < 3; i++ {
		if _, err := s.Solve(p); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(s.Opts, opts) {
		t.Errorf("Solve mutated Opts: %+v, want %+v", s.Opts, opts)
	}
}

// TestSolverSequenceDeterministic pins the evolved per-run state: two
// solvers built from the same Options must replay identical decision
// sequences (the seed advance and warm start moved behind the mutex
// without changing sequential behavior).
func TestSolverSequenceDeterministic(t *testing.T) {
	mk := func() *Solver { return &Solver{Opts: Options{Delta: 1e4, MaxIters: 300, Seed: 7}} }
	a, b := mk(), mk()
	for i := 0; i < 4; i++ {
		lambda := 30 + 10*float64(i%3)
		sa, err := a.Solve(smallProblem(3, lambda))
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.Solve(smallProblem(3, lambda))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sa.Speeds, sb.Speeds) || sa.Value != sb.Value {
			t.Fatalf("call %d diverged: %v (%v) vs %v (%v)", i, sa.Speeds, sa.Value, sb.Speeds, sb.Value)
		}
	}
}

// TestSolverConcurrentSolve hammers one Solver from many goroutines; run
// under -race this is the regression test for the shared-Opts data race,
// and the reserved-seed scheme means no two calls replay one sample path.
func TestSolverConcurrentSolve(t *testing.T) {
	s := &Solver{Opts: Options{Delta: 1e4, MaxIters: 100, Seed: 3}}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				if _, err := s.Solve(smallProblem(2, 20+5*float64(g%3))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSolverPooledEngineParity checks that a Solver's pooled engine is
// invisible: a sequence of Solve calls on one Solver (reusing the engine)
// must match the same sequence on per-slot fresh Solvers wired to the same
// evolving seed/warm-start state... which is exactly what two independent
// Solvers with identical Options produce.
func TestSolverPooledEngineParity(t *testing.T) {
	mk := func() *Solver {
		return &Solver{Opts: Options{Delta: 1e4, MaxIters: 300, Seed: 99}}
	}
	a, b := mk(), mk()
	for i, lam := range []float64{60, 120, 30, 90, 150} {
		pa := smallProblem(4, lam)
		pb := smallProblem(4, lam)
		sa, errA := a.Solve(pa)
		sb, errB := b.Solve(pb)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("slot %d: errs %v vs %v", i, errA, errB)
		}
		if errA != nil {
			continue
		}
		// Returned solutions must also be immune to later pooled-engine
		// reuse: compare after the next call, below.
		if math.Float64bits(sa.Value) != math.Float64bits(sb.Value) {
			t.Fatalf("slot %d: value %v vs %v", i, sa.Value, sb.Value)
		}
		for g := range sa.Speeds {
			if sa.Speeds[g] != sb.Speeds[g] || math.Float64bits(sa.Load[g]) != math.Float64bits(sb.Load[g]) {
				t.Fatalf("slot %d: mismatch at group %d", i, g)
			}
		}
	}
}

// TestSolverPooledResultNotClobbered pins the aliasing contract: a Solution
// returned by Solver.Solve must stay intact when the pooled engine is
// reused by the next call.
func TestSolverPooledResultNotClobbered(t *testing.T) {
	s := &Solver{Opts: Options{Delta: 1e4, MaxIters: 200, Seed: 5}}
	first, err := s.Solve(smallProblem(4, 60))
	if err != nil {
		t.Fatal(err)
	}
	keepSpeeds := append([]int(nil), first.Speeds...)
	keepLoad := append([]float64(nil), first.Load...)
	if _, err := s.Solve(smallProblem(4, 130)); err != nil {
		t.Fatal(err)
	}
	for i := range keepSpeeds {
		if first.Speeds[i] != keepSpeeds[i] || math.Float64bits(first.Load[i]) != math.Float64bits(keepLoad[i]) {
			t.Fatalf("returned solution mutated by pooled-engine reuse at %d", i)
		}
	}
}
