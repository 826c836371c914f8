package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if !almostEqual(s.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("Var = %v, want %v", s.Var(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Error("String() empty")
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 {
		t.Error("empty summary should be all zeros")
	}
	s.Add(3)
	if s.Var() != 0 {
		t.Error("single-observation variance should be 0")
	}
	if s.Min() != 3 || s.Max() != 3 {
		t.Error("single-observation min/max wrong")
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 2 {
			return true
		}
		for i := range xs {
			// Constrain magnitudes to keep the naive two-pass reference stable.
			xs[i] = math.Mod(xs[i], 1e6)
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		var s Summary
		s.AddAll(xs)
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(xs)-1)
		return almostEqual(s.Mean(), mean, 1e-9) && almostEqual(s.Var(), variance, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSumKahanAccuracy(t *testing.T) {
	// 1 followed by many tiny values: naive summation in float32-ish patterns
	// loses them; Kahan must not.
	xs := make([]float64, 1_000_001)
	xs[0] = 1
	for i := 1; i < len(xs); i++ {
		xs[i] = 1e-16
	}
	got := Sum(xs)
	want := 1 + 1e-10
	if math.Abs(got-want) > 1e-14 {
		t.Errorf("Kahan Sum = %.18f, want %.18f", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.3); !almostEqual(got, 3, 1e-12) {
		t.Errorf("interpolated quantile = %v, want 3", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, bad := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMinMaxOf(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if MaxOf(xs) != 5 {
		t.Errorf("MaxOf = %v", MaxOf(xs))
	}
	if MaxOf(nil) != 0 {
		t.Error("empty-slice MaxOf should be 0")
	}
}

func TestScaleAndNormalize(t *testing.T) {
	xs := []float64{1, 2, 4}
	Scale(xs, 2)
	if xs[2] != 8 {
		t.Errorf("Scale failed: %v", xs)
	}
	Normalize(xs)
	if !almostEqual(MaxOf(xs), 1, 1e-12) {
		t.Errorf("Normalize max = %v", MaxOf(xs))
	}
	// Non-positive max: unchanged.
	ys := []float64{-1, -2}
	Normalize(ys)
	if ys[0] != -1 || ys[1] != -2 {
		t.Errorf("Normalize changed non-positive slice: %v", ys)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}
