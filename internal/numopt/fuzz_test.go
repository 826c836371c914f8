package numopt

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// FuzzMinimizeInt checks that on arbitrary convex quadratics the integer
// minimizer never returns a value worse than both endpoints and the true
// vertex (the safety property the COCA fast path relies on).
func FuzzMinimizeInt(f *testing.F) {
	f.Add(3.0, 50.0, 0, 200)
	f.Add(0.001, -10.0, 5, 10)
	f.Add(100.0, 0.0, 0, 1)
	f.Fuzz(func(t *testing.T, a, c float64, lo, hi int) {
		if math.IsNaN(a) || math.IsNaN(c) || math.IsInf(a, 0) || math.IsInf(c, 0) {
			return
		}
		a = math.Abs(math.Mod(a, 1e6)) + 1e-9 // positive curvature → convex
		c = math.Mod(c, 1e6)
		lo = lo % 1000
		hi = hi % 1000
		if lo < 0 {
			lo = -lo
		}
		if hi < lo {
			lo, hi = hi, lo
		}
		if hi < 0 {
			return
		}
		obj := func(x int) float64 {
			d := float64(x) - c
			return a * d * d
		}
		gotX, gotF := MinimizeInt(obj, lo, hi, 3)
		if gotX < lo || gotX > hi {
			t.Fatalf("argmin %d outside [%d,%d]", gotX, lo, hi)
		}
		// The true integer optimum is at the clamped rounded vertex.
		v := int(math.Round(c))
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		if want := obj(v); gotF > want*(1+1e-9)+1e-9 {
			t.Fatalf("MinimizeInt %v at %d, vertex gives %v at %d", gotF, gotX, want, v)
		}
	})
}

// FuzzBisectMonotone checks the saturating root finder on arbitrary affine
// functions: the result must always lie in [lo, hi] and, when the target
// is reachable, solve it within tolerance.
func FuzzBisectMonotone(f *testing.F) {
	f.Add(2.0, 1.0, 7.0, 0.0, 10.0)
	f.Add(-3.0, 0.0, -5.0, -2.0, 4.0)
	f.Fuzz(func(t *testing.T, slope, icept, target, lo, hi float64) {
		for _, v := range []float64{slope, icept, target, lo, hi} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e9 {
				return
			}
		}
		if hi < lo {
			lo, hi = hi, lo
		}
		if hi-lo < 1e-9 {
			return
		}
		g := func(x float64) float64 { return slope*x + icept }
		x := BisectMonotone(g, target, lo, hi, (hi-lo)*1e-12, 200)
		if x < lo-1e-12 || x > hi+1e-12 {
			t.Fatalf("result %v outside [%v,%v]", x, lo, hi)
		}
		gl, gh := g(lo), g(hi)
		mn, mx := math.Min(gl, gh), math.Max(gl, gh)
		if target >= mn && target <= mx && math.Abs(slope) > 1e-9 {
			if math.Abs(g(x)-target) > 1e-6*(1+math.Abs(target))+math.Abs(slope)*(hi-lo)*1e-9 {
				t.Fatalf("g(%v) = %v, target %v", x, g(x), target)
			}
		}
	})
}

// FuzzWaterFillCertified checks on random duplicate-heavy systems that the
// certified-probe path, with and without the located price search, returns
// the exact path's allocation bit for bit, at a random total (pick 0) or at
// a total forced onto the pick-th exact probe sum of that fill (a fill at
// total 0 or at capacity probes nothing), under true or adversarial slopes
// (slope modulo the number of slope modes) and any price hint (hint modulo
// the number of hint modes).
func FuzzWaterFillCertified(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint8(4), 0.5, uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint16(5000), uint8(3), 0.9, uint8(40), uint8(0), uint8(1))
	f.Add(uint64(3), uint16(7), uint8(7), 0.1, uint8(1), uint8(7), uint8(4))
	f.Add(uint64(4), uint16(104), uint8(50), 0.0, uint8(26), uint8(4), uint8(2)) // total 0: no probes
	f.Add(uint64(5), uint16(300), uint8(5), 0.7, uint8(44), uint8(6), uint8(9))
	f.Add(uint64(6), uint16(900), uint8(9), 0.3, uint8(0), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, classes uint8, frac float64, pick, slope, hint uint8) {
		if math.IsNaN(frac) || math.IsInf(frac, 0) {
			return
		}
		items := 1 + int(n)%10000
		q := classQuad(stats.NewRNG(seed), items, 1+int(classes)%items, boundCertified).
			with(boundCertified, slopeMode(int(slope)%int(numSlopeModes))).
			withHint(hintMode(int(hint) % int(numHintModes)))
		total := math.Abs(math.Mod(frac, 1)) * q.CapSum()
		if sums := exactProbes(q, total); pick > 0 && len(sums) > 0 {
			total = sums[int(pick)%len(sums)]
		}
		if r := compareCertified(q, total); !r.agree {
			t.Fatalf("certified fill (slopes %v, hint %v) differs from the exact path at total %v", q.slope, q.hint, total)
		}
	})
}
