package reqsim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
)

// TestQuantilePropertyVsSortedReference is the percentile-correctness
// property test: across randomized workload shapes (sizes, duplicates,
// heavy tails, constants, adversarial patterns) the tape's quickselect
// quantile must equal stats.Quantile over the fully sorted sample — not
// within tolerance, bit for bit, because both use the identical
// interpolation expression on the identical order statistics.
func TestQuantilePropertyVsSortedReference(t *testing.T) {
	rng := stats.NewRNG(99)
	qs := []float64{0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	shapes := []struct {
		name string
		gen  func(n int) []float64
	}{
		{"uniform", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.Float64()
			}
			return xs
		}},
		{"exponential", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.Exponential(3)
			}
			return xs
		}},
		{"heavy-tail", func(n int) []float64 {
			s := ParetoService(1, 1.2)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = s.sample(rng)
			}
			return xs
		}},
		{"duplicates", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(int(rng.Float64() * 4)) // only 4 distinct values
			}
			return xs
		}},
		{"constant", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 7.25
			}
			return xs
		}},
		{"sorted-asc", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		}},
		{"sorted-desc", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		}},
		{"organ-pipe", func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Min(float64(i), float64(n-i))
			}
			return xs
		}},
	}
	sizes := []int{1, 2, 3, 4, 5, 7, 16, 63, 100, 1024, 5000}
	var tape SampleTape
	for _, shape := range shapes {
		for _, n := range sizes {
			xs := shape.gen(n)
			// Reference: stats.Quantile over an independently sorted copy.
			ref := append([]float64(nil), xs...)
			sort.Float64s(ref)
			tape.Reset()
			for _, v := range xs {
				tape.Observe(v)
			}
			for _, q := range qs {
				want := stats.Quantile(ref, q)
				got := tape.Quantile(q)
				if got != want {
					t.Fatalf("%s n=%d q=%v: tape %v != sorted reference %v",
						shape.name, n, q, got, want)
				}
			}
			// The one-pass helper, on the three result percentiles and on
			// other non-decreasing level sets.
			for _, levels := range multiLevels {
				buf := append([]float64(nil), xs...)
				out := make([]float64, len(levels))
				quantilesSelect(buf, levels, out)
				for i, q := range levels {
					if want := stats.Quantile(ref, q); math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("%s n=%d levels %v: q=%v gives %v, sorted reference %v",
							shape.name, n, levels, q, out[i], want)
					}
				}
			}
			buf := append([]float64(nil), xs...)
			p50, p95, p99 := percentiles(buf)
			for i, got := range []float64{p50, p95, p99} {
				q := percentileLevels[i]
				if want := stats.Quantile(ref, q); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d: percentiles q=%v gives %v, sorted reference %v",
						shape.name, n, q, got, want)
				}
			}
		}
	}
}

// multiLevels are the level sets beyond P50/P95/P99 the one-pass
// quantile helper is checked on: repeats, adjacent order statistics and
// the extremes.
var multiLevels = [][]float64{
	{0, 0.5, 1},
	{0.25, 0.25, 0.75, 0.75},
	{0.5, 0.5000001, 0.99, 0.999, 1},
	{0, 0, 0.01, 1, 1},
}

func TestQuantileEmptyAndBounds(t *testing.T) {
	var tape SampleTape
	if got := tape.Quantile(0.5); got != 0 {
		t.Errorf("empty tape quantile = %v, want 0", got)
	}
	tape.Observe(3)
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("q=%v: expected panic", q)
				}
			}()
			tape.Quantile(q)
		}()
	}
}

func TestTapeAppendToPreservesOrder(t *testing.T) {
	var a, b SampleTape
	a.Observe(1)
	a.Observe(2)
	b.Observe(3)
	merged := b.AppendTo(a.AppendTo(nil))
	want := []float64{1, 2, 3}
	if len(merged) != len(want) {
		t.Fatalf("merged %v", merged)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Fatalf("merged %v, want %v", merged, want)
		}
	}
}

// TestQuantileAllocFree pins that a warm tape answers quantiles without
// allocating — quickselect works in place on the tape's own slab.
func TestQuantileAllocFree(t *testing.T) {
	var tape SampleTape
	rng := stats.NewRNG(5)
	for i := 0; i < 10000; i++ {
		tape.Observe(rng.Exponential(1))
	}
	allocs := testing.AllocsPerRun(10, func() {
		_ = tape.Quantile(0.5)
		_ = tape.Quantile(0.95)
		_ = tape.Quantile(0.99)
		_, _, _ = percentiles(tape.buf)
	})
	if allocs != 0 {
		t.Errorf("Quantile allocated %.0f times; want 0", allocs)
	}
}
