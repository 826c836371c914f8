package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMovingAverageWarmup(t *testing.T) {
	ma := NewMovingAverage(3)
	if got := ma.Add(3); got != 3 {
		t.Errorf("after 1 add: %v", got)
	}
	if got := ma.Add(5); got != 4 {
		t.Errorf("after 2 adds: %v", got)
	}
	if got := ma.Add(7); got != 5 {
		t.Errorf("after 3 adds: %v", got)
	}
	// Window slides: {5,7,9} -> 7.
	if got := ma.Add(9); got != 7 {
		t.Errorf("after slide: %v", got)
	}
	if ma.N() != 3 {
		t.Errorf("N = %d", ma.N())
	}
}

func TestMovingAveragePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMovingAverage(0)
}

func TestMovingAverageMatchesBruteForce(t *testing.T) {
	g := NewRNG(5)
	const window = 7
	ma := NewMovingAverage(window)
	var hist []float64
	for i := 0; i < 500; i++ {
		x := g.Uniform(-10, 10)
		hist = append(hist, x)
		got := ma.Add(x)
		lo := 0
		if len(hist) > window {
			lo = len(hist) - window
		}
		want := Mean(hist[lo:])
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("step %d: got %v, want %v", i, got, want)
		}
	}
}

func TestRunningAverage(t *testing.T) {
	var ra RunningAverage
	if ra.Value() != 0 {
		t.Error("empty running average != 0")
	}
	ra.Add(2)
	ra.Add(4)
	if got := ra.Add(9); math.Abs(got-5) > 1e-12 {
		t.Errorf("running average = %v, want 5", got)
	}
}

func TestRunningAverageSeriesMatchesPrefixMeans(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i := range raw {
			xs[i] = math.Mod(raw[i], 1e6)
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		out := RunningAverageSeries(xs)
		for i := range xs {
			if !almostEqual(out[i], Mean(xs[:i+1]), 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMovingAverageSeriesLength(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	out := MovingAverageSeries(xs, 2)
	if len(out) != len(xs) {
		t.Fatalf("length %d, want %d", len(out), len(xs))
	}
	want := []float64{1, 1.5, 2.5, 3.5}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestAR1MeanReversion(t *testing.T) {
	g := NewRNG(31)
	p := &AR1{Mean: 10, Phi: 0.9, Sigma: 1}
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(p.Next(g))
	}
	if math.Abs(s.Mean()-10) > 0.2 {
		t.Errorf("AR1 mean = %v, want ~10", s.Mean())
	}
	// Stationary std of AR(1) is sigma/sqrt(1-phi^2) ≈ 2.294.
	wantStd := 1 / math.Sqrt(1-0.81)
	if math.Abs(s.Std()-wantStd) > 0.15 {
		t.Errorf("AR1 std = %v, want ~%v", s.Std(), wantStd)
	}
}

func TestAR1Clamp(t *testing.T) {
	g := NewRNG(37)
	p := &AR1{Mean: 0, Phi: 0.5, Sigma: 5, Clamp: true, Lo: -1, Hi: 1}
	for i := 0; i < 10000; i++ {
		v := p.Next(g)
		if v < -1 || v > 1 {
			t.Fatalf("clamped AR1 escaped bounds: %v", v)
		}
	}
}
