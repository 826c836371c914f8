package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Float64(), b.Float64(); av != bv {
			t.Fatalf("streams diverged at %d: %v vs %v", i, av, bv)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical samples", same)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := g.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(11)
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(g.Normal(3, 2))
	}
	if math.Abs(s.Mean()-3) > 0.05 {
		t.Errorf("Normal mean = %v, want ~3", s.Mean())
	}
	if math.Abs(s.Std()-2) > 0.05 {
		t.Errorf("Normal std = %v, want ~2", s.Std())
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(13)
	var s Summary
	rate := 4.0
	for i := 0; i < 200000; i++ {
		v := g.Exponential(rate)
		if v < 0 {
			t.Fatalf("Exponential returned negative %v", v)
		}
		s.Add(v)
	}
	if math.Abs(s.Mean()-1/rate) > 0.01 {
		t.Errorf("Exponential mean = %v, want ~%v", s.Mean(), 1/rate)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate <= 0")
		}
	}()
	NewRNG(1).Exponential(0)
}

func TestBernoulli(t *testing.T) {
	g := NewRNG(19)
	if g.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !g.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", frac)
	}
}

func TestIntNRange(t *testing.T) {
	g := NewRNG(29)
	counts := make([]int, 5)
	for i := 0; i < 50000; i++ {
		counts[g.IntN(5)]++
	}
	for k, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("IntN(5) bucket %d count %d far from uniform", k, c)
		}
	}
}

// TestReseedMatchesFresh pins Reseed's contract: after Reseed(s) a consumed
// generator produces the exact stream NewRNG(s) would.
func TestReseedMatchesFresh(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 1000; i++ {
		g.Float64()
		g.IntN(17)
	}
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		g.Reseed(seed)
		fresh := NewRNG(seed)
		for i := 0; i < 200; i++ {
			if a, b := g.Float64(), fresh.Float64(); a != b {
				t.Fatalf("seed %d draw %d: %v != %v", seed, i, a, b)
			}
		}
	}
}
