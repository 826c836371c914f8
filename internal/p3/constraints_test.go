package p3

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/stats"
)

func baseProblem() *HomogeneousProblem {
	return &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 200, Gamma: 0.95, PUE: 1,
		LambdaRPS: 600, We: 0.05, Wd: 0.02, OnsiteKW: 5,
	}
}

func TestMaxPowerConstraintBinds(t *testing.T) {
	free, err := baseProblem().Solve()
	if err != nil {
		t.Fatal(err)
	}
	capped := baseProblem()
	capped.MaxPowerKW = free.PowerKW * 0.9
	got, err := capped.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got.PowerKW > capped.MaxPowerKW*(1+1e-9) {
		t.Errorf("power %v exceeds cap %v", got.PowerKW, capped.MaxPowerKW)
	}
	if got.Value < free.Value-1e-9 {
		t.Errorf("constrained optimum %v beats unconstrained %v", got.Value, free.Value)
	}
}

func TestMaxDelayConstraintBinds(t *testing.T) {
	free, err := baseProblem().Solve()
	if err != nil {
		t.Fatal(err)
	}
	capped := baseProblem()
	// The tightest achievable delay with the whole fleet at top speed is
	// λ·N/(N·x − λ); pick a cap between that floor and the free optimum so
	// the constraint binds but stays feasible.
	floor := capped.LambdaRPS * float64(capped.N) /
		(float64(capped.N)*capped.Type.MaxRate() - capped.LambdaRPS)
	capped.MaxDelayCost = (free.DelayCost + floor) / 2
	got, err := capped.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got.DelayCost > capped.MaxDelayCost*(1+1e-9) {
		t.Errorf("delay %v exceeds cap %v", got.DelayCost, capped.MaxDelayCost)
	}
	if got.Value < free.Value-1e-9 {
		t.Errorf("constrained optimum %v beats unconstrained %v", got.Value, free.Value)
	}
}

func TestConstraintsInfeasible(t *testing.T) {
	// A power cap below even the leanest configuration.
	hp := baseProblem()
	hp.MaxPowerKW = 1
	if _, err := hp.Solve(); err != ErrInfeasible {
		t.Errorf("tiny power cap: want ErrInfeasible, got %v", err)
	}
	// A delay cap below the λ/x limit (infinitely many servers cannot meet it).
	hp = baseProblem()
	hp.MaxDelayCost = hp.LambdaRPS/hp.Type.MaxRate() - 1
	if _, err := hp.Solve(); err != ErrInfeasible {
		t.Errorf("impossible delay cap: want ErrInfeasible, got %v", err)
	}
}

func TestConstrainedMatchesExhaustive(t *testing.T) {
	rng := stats.NewRNG(777)
	for trial := 0; trial < 50; trial++ {
		hp := &HomogeneousProblem{
			Type: dcmodel.Opteron(), N: 1 + rng.IntN(150), Gamma: 0.95, PUE: 1,
			LambdaRPS: rng.Uniform(1, 600), We: rng.Uniform(0, 0.3),
			Wd: rng.Uniform(1e-3, 0.05), OnsiteKW: rng.Uniform(0, 10),
		}
		if rng.Bernoulli(0.7) {
			hp.MaxPowerKW = rng.Uniform(5, 50)
		}
		if rng.Bernoulli(0.7) {
			hp.MaxDelayCost = rng.Uniform(50, 1000)
		}
		fast, fastErr := hp.Solve()
		bestVal := math.Inf(1)
		for k := 1; k <= hp.Type.NumSpeeds(); k++ {
			for m := 1; m <= hp.N; m++ {
				if v, _ := hp.objective(k, m); v < bestVal {
					bestVal = v
				}
			}
		}
		if math.IsInf(bestVal, 1) {
			if fastErr != ErrInfeasible {
				t.Errorf("trial %d: exhaustive infeasible, fast said %v", trial, fastErr)
			}
			continue
		}
		if fastErr != nil {
			t.Fatalf("trial %d: %v (exhaustive found %v)", trial, fastErr, bestVal)
		}
		if fast.Value > bestVal*(1+1e-9)+1e-12 {
			t.Errorf("trial %d: fast %v > exhaustive %v", trial, fast.Value, bestVal)
		}
	}
}

// TestCapsThatNeverBindChangeNothing checks that a peak-power or delay cap
// far above anything the fleet can reach, up to the largest float and
// +Inf, gives the uncapped solution bit for bit: the count bounds such caps
// imply lie past the fleet and must not overflow the int conversion.
func TestCapsThatNeverBindChangeNothing(t *testing.T) {
	base := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 216000, Gamma: 0.95, PUE: 1.2,
		LambdaRPS: 6e5, We: 0.07, Wd: 0.02, OnsiteKW: 3000,
	}
	want, err := base.Solve()
	if err != nil {
		t.Fatal(err)
	}
	huge := []float64{1e18, 1e30, 1e300, math.MaxFloat64, math.Inf(1)}
	for _, c := range huge {
		for _, capDelay := range []bool{false, true} {
			hp := *base
			if capDelay {
				hp.MaxDelayCost = c
			} else {
				hp.MaxPowerKW = c
			}
			got, err := hp.Solve()
			if err != nil {
				t.Errorf("cap %v (delay %v): %v", c, capDelay, err)
				continue
			}
			if !sameSolution(got, want) {
				t.Errorf("cap %v (delay %v): %+v, uncapped %+v", c, capDelay, got, want)
			}
		}
	}
	// A load no fleet can carry stays infeasible, with or without caps.
	for _, maxPower := range []float64{0, math.MaxFloat64} {
		hp := *base
		hp.LambdaRPS, hp.MaxPowerKW = math.Inf(1), maxPower
		if _, err := hp.Solve(); !errors.Is(err, ErrInfeasible) {
			t.Errorf("λ = +Inf, MaxPowerKW %v: want ErrInfeasible, got %v", maxPower, err)
		}
	}
}

// sameSolution compares two solutions bit for bit.
func sameSolution(a, b HomogeneousSolution) bool {
	return a.Speed == b.Speed && a.Active == b.Active &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		math.Float64bits(a.PowerKW) == math.Float64bits(b.PowerKW) &&
		math.Float64bits(a.GridKWh) == math.Float64bits(b.GridKWh) &&
		math.Float64bits(a.DelayCost) == math.Float64bits(b.DelayCost)
}
