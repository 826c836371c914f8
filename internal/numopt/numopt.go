// Package numopt is the handwritten numerical-optimization toolkit used by
// the COCA reproduction. Go has no mainstream numerical ecosystem, so the
// primitives the paper's algorithms rest on — saturating monotone
// bisection, unimodal search over the integers, and the KKT water-filling
// solver for separable convex programs with a single linear coupling
// constraint — are implemented here from scratch on the standard library.
package numopt

import (
	"errors"
	"math"
)

// ErrInfeasible is returned by solvers whose constraints admit no solution.
var ErrInfeasible = errors.New("numopt: problem infeasible")

// BisectMonotone finds x in [lo, hi] with g(x) ≈ target for a monotone
// (either direction) continuous g. If the target lies outside [g(lo), g(hi)],
// the nearer endpoint is returned; this saturating behavior is what the
// dual-variable searches in the load balancer need.
func BisectMonotone(g func(float64) float64, target, lo, hi, xtol float64, maxIter int) float64 {
	return BisectMonotoneFrom(g, target, lo, hi, g(lo), g(hi), xtol, maxIter)
}

// BisectMonotoneFrom is BisectMonotone for a caller that already holds the
// endpoint values glo = g(lo) and ghi = g(hi) (typically from bracketing
// the target); g must be pure, so reusing them changes nothing but the
// number of evaluations.
func BisectMonotoneFrom(g func(float64) float64, target, lo, hi, glo, ghi, xtol float64, maxIter int) float64 {
	increasing := ghi >= glo
	// Saturate outside the achievable range.
	if increasing {
		if target <= glo {
			return lo
		}
		if target >= ghi {
			return hi
		}
	} else {
		if target >= glo {
			return lo
		}
		if target <= ghi {
			return hi
		}
	}
	for i := 0; i < maxIter && hi-lo > xtol; i++ {
		mid := lo + (hi-lo)/2
		gm := g(mid)
		if gm == target {
			return mid
		}
		if (gm < target) == increasing {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// MinimizeInt minimizes f over the integers [lo, hi]. It assumes f is
// unimodal (non-strictly) and uses ternary search narrowed to a final local
// sweep of width sweep, which protects against small plateaus and mild
// non-unimodality near the optimum (e.g. the [·]^+ kink in the COCA
// objective). It returns the best argument and value. It panics if lo > hi.
func MinimizeInt(f func(int) float64, lo, hi, sweep int) (int, float64) {
	if lo > hi {
		panic("numopt: MinimizeInt requires lo <= hi")
	}
	if sweep < 1 {
		sweep = 1
	}
	a, b := lo, hi
	for b-a > 2*sweep {
		m1 := a + (b-a)/3
		m2 := b - (b-a)/3
		if f(m1) <= f(m2) {
			b = m2 - 1
		} else {
			a = m1 + 1
		}
	}
	// Final exhaustive sweep over the remaining window, padded by sweep on
	// both sides to absorb ternary-search error under weak unimodality.
	start, end := a-sweep, b+sweep
	if start < lo {
		start = lo
	}
	if end > hi {
		end = hi
	}
	bestX, bestF := start, f(start)
	for x := start + 1; x <= end; x++ {
		if v := f(x); v < bestF {
			bestX, bestF = x, v
		}
	}
	return bestX, bestF
}

// Clamp restricts v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// WaterSystem describes the separable convex program WaterFillInto solves:
// coordinate i has capacity Cap(i), marginal cost Deriv(i, v) that is
// continuous and strictly increasing on [0, Cap(i)), and inverse marginal
// Alloc(i, nu) extended by saturation, i.e. Alloc(i, nu) = 0 when
// nu ≤ Deriv(i, 0) and Cap(i) when nu ≥ Deriv(i, Cap(i)). A single
// implementation over preallocated arrays lets hot loops (the GSD inner
// loop solves one such program per Gibbs proposal) water-fill without
// per-coordinate allocations.
type WaterSystem interface {
	// Items returns the number of coordinates.
	Items() int
	// Cap returns the upper bound on coordinate i.
	Cap(i int) float64
	// Deriv returns the marginal cost of coordinate i at allocation v.
	Deriv(i int, v float64) float64
	// Alloc returns the allocation at which coordinate i's marginal cost
	// equals price nu, clamped to [0, Cap(i)].
	Alloc(i int, nu float64) float64
}

// BulkWaterSystem is an optional extension of WaterSystem for systems whose
// coordinate state lives in flat arrays: WaterFillInto type-asserts for it
// and, when present, replaces its per-item Alloc and Deriv interface calls
// with one bulk call per price evaluation (and one for the bracket).
// Implementations MUST accumulate in ascending index order — the exact
// arithmetic of the per-item loop they replace — so the fast path stays
// bit-for-bit identical to the generic one.
//
// Each price probe first asks SumAllocBound for a certified estimate of the
// exact sum and takes SumAlloc only when the estimate cannot decide the
// comparison at hand (see certProbe), so every decision, and hence every
// output bit, is the one the exact sums would give. SumAllocSlope and
// PriceHint only steer which probes are taken (see locate); their
// values never reach a decision.
type BulkWaterSystem interface {
	WaterSystem
	// SumAlloc returns Σ_i Alloc(i, nu), accumulated in ascending i. The
	// computed sum MUST be non-decreasing in nu, bit for bit: nu ≤ nu'
	// implies SumAlloc(nu) ≤ SumAlloc(nu'). A fixed-order sum of
	// non-negative per-item values that are each non-decreasing in nu is,
	// since rounded addition is monotone in each operand.
	SumAlloc(nu float64) float64
	// SumAllocBound returns an estimate of SumAlloc(nu) and a slack with
	// |SumAlloc(nu) − est| ≤ slack; a zero slack promises est is exact.
	SumAllocBound(nu float64) (est, slack float64)
	// SumAllocSlope returns an estimate of SumAlloc(nu) and of its
	// derivative in nu. It is advisory: any values, NaN included, may
	// change how many probes a fill takes but never an output bit.
	SumAllocSlope(nu float64) (est, slope float64)
	// PriceHint returns a guess at the price this fill will find, such as
	// the price a previous fill of a nearby system found, or NaN for none.
	// It is advisory like SumAllocSlope: any value may change how many
	// probes a fill takes but never an output bit.
	PriceHint() float64
	// AllocInto writes Alloc(i, nu) into out[i] for i in [0, len(out)) and
	// returns the ascending-order sum of the written values.
	AllocInto(out []float64, nu float64) float64
	// ZeroDerivRange returns the minimum and maximum of Deriv(i, 0) over
	// all coordinates.
	ZeroDerivRange() (lo, hi float64)
	// CapSum returns Σ_i Cap(i), accumulated in ascending i.
	CapSum() float64
}

// ClassSumSlack is the slack for est = Σ_r c_r·v_r as an estimate of E, the
// floating-point ascending sum of n non-negative terms that take the value
// v_r exactly c_r times (r ranging over classes classes, Σ c_r = n, every
// c_r exact as a float64). With u = 2⁻⁵³ and γ_k = k·u/(1 − k·u), and S the
// real sum, Higham's bounds (Accuracy and Stability of Numerical
// Algorithms, §4.2) give |E − S| ≤ γ_{n−1}·S for the n−1 additions, and
// |est − S| ≤ γ_classes·S for one rounded product and at most classes−1
// additions per term. So
//
//	|E − est| ≤ (γ_{n−1} + γ_classes)·S ≤ (γ_{n−1} + γ_classes)/(1 − γ_classes)·est,
//
// about (n + classes − 1)·u·est. The returned (n + classes)·2⁻⁵²·est is
// twice that, and the margin also covers the rounding of the product
// itself and of est ± slack in a comparison, for any n + classes far below
// 2⁵⁰. Sums and integer multiples of non-negative floats that land in the
// subnormal range are exact, so underflow cannot break the bound; overflow
// makes est or slack infinite, which certProbe treats as undecidable.
func ClassSumSlack(est float64, n, classes int) float64 {
	return float64(n+classes) * 0x1p-52 * est
}

// WaterFillInto solves
//
//	min Σ_i cost_i(λ_i)   s.t.  Σ_i λ_i = total,  0 ≤ λ_i ≤ Cap(i)
//
// for the separable convex costs sys describes, via bisection on the dual
// price ν (the classic water-filling / KKT structure: λ_i(ν) = Alloc(i, ν)).
// It writes the allocation into out (grown when its capacity is short) and
// returns it, or ErrInfeasible when total exceeds Σ Cap(i) or is not ≥ 0
// (negative or NaN). With a sufficiently large out it performs no
// allocation beyond what sys itself does. A plain WaterSystem takes
// itemPrice's per-item search; a BulkWaterSystem takes the certified-probe
// path of bulkPrice, which decides every comparison as the exact sums
// would, so the two produce bit-for-bit identical allocations.
func WaterFillInto(sys WaterSystem, total, tol float64, out []float64) ([]float64, error) {
	if !(total >= 0) { // negative or NaN
		return nil, ErrInfeasible
	}
	n := sys.Items()
	bulk, _ := sys.(BulkWaterSystem)
	var capSum float64
	if bulk != nil {
		capSum = bulk.CapSum()
	} else {
		for i := 0; i < n; i++ {
			capSum += sys.Cap(i)
		}
	}
	if total > capSum*(1+1e-12)+tol {
		return nil, ErrInfeasible
	}
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	if total == 0 {
		for i := range out {
			out[i] = 0
		}
		return out, nil
	}
	if total >= capSum {
		for i := 0; i < n; i++ {
			out[i] = sys.Cap(i)
		}
		return out, nil
	}
	var got float64
	if bulk != nil {
		got = bulk.AllocInto(out, bulkPrice(bulk, total))
	} else {
		nu := itemPrice(sys, total)
		for i := 0; i < n; i++ {
			out[i] = sys.Alloc(i, nu)
			got += out[i]
		}
	}
	// Repair the residual mismatch caused by finite bisection: spread it
	// across coordinates with slack, preserving bounds.
	resid := total - got
	for pass := 0; pass < 4 && math.Abs(resid) > tol; pass++ {
		for i := 0; i < n; i++ {
			if resid > 0 {
				room := sys.Cap(i) - out[i]
				d := math.Min(room, resid)
				out[i] += d
				resid -= d
			} else {
				d := math.Min(out[i], -resid)
				out[i] -= d
				resid += d
			}
			if math.Abs(resid) <= tol {
				break
			}
		}
	}
	return out, nil
}

// The price search's constants, shared by both paths: the bracket may
// double at most bracketDoublings times, and the bisection stops after
// bisectIters steps or once the bracket is bisectRelTol of its start. The
// bulk path's locator takes at most locateIters slope sweeps.
const (
	bracketDoublings = 200
	bisectIters      = 120
	bisectRelTol     = 1e-13
	locateIters      = 16
)

// itemPrice is the per-item path's search for the price ν at which
// Σ_i Alloc(i, ν) meets total: bracket ν from the extremes of Deriv(i, 0),
// expanding geometrically until the aggregate allocation covers total, then
// bisect.
func itemPrice(sys WaterSystem, total float64) float64 {
	n := sys.Items()
	sumAt := func(nu float64) float64 {
		var s float64
		for i := 0; i < n; i++ {
			s += sys.Alloc(i, nu)
		}
		return s
	}
	nuLo, nuHi := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		d0 := sys.Deriv(i, 0)
		if d0 < nuLo {
			nuLo = d0
		}
		if d0 > nuHi {
			nuHi = d0
		}
	}
	if nuHi <= nuLo {
		nuHi = nuLo + 1
	}
	// sumHi tracks sumAt(nuHi) for the final nuHi on either exit (covered,
	// or the doubling cap), so the bisection need not probe it again.
	sumHi := sumAt(nuHi)
	for iter := 0; sumHi < total && iter < bracketDoublings; iter++ {
		nuHi = nuLo + 2*(nuHi-nuLo)
		sumHi = sumAt(nuHi)
	}
	return BisectMonotoneFrom(sumAt, total, nuLo, nuHi, sumAt(nuLo), sumHi, (nuHi-nuLo)*bisectRelTol, bisectIters)
}

// certProbe is one price probe of a BulkWaterSystem: the exact sum
// E = SumAlloc(nu) is known to lie within slack of v, and equals v once
// slack is 0.
type certProbe struct{ nu, v, slack float64 }

// probeAt asks b for its certified estimate at nu.
func probeAt(b BulkWaterSystem, nu float64) certProbe {
	est, slack := b.SumAllocBound(nu)
	return certProbe{nu, est, slack}
}

// vs returns a value that compares with t exactly as E does under every
// operator: the estimate when t lies strictly outside [v − slack, v + slack]
// (E lies inside, so on the same side of t), the exact sum otherwise. A NaN
// estimate or slack, or a NaN t, fails both tests and takes the exact sum.
func (p *certProbe) vs(b BulkWaterSystem, t float64) float64 {
	if p.slack != 0 && !(t < p.v-p.slack || t > p.v+p.slack) {
		p.v, p.slack = b.SumAlloc(p.nu), 0
	}
	return p.v
}

// bulkPrice is itemPrice over a BulkWaterSystem, bit for bit: the same
// bracket, the same bisection midpoints and the same decisions, taken with
// far fewer sums. It locates the price first (locate): prices below <
// above with E(below) < total < E(above), both strict, for the exact sum
// E = SumAlloc. E is non-decreasing in ν bit for bit (the BulkWaterSystem
// contract), so every ν ≤ below has E(ν) < total and every ν ≥ above has
// E(ν) > total, and the exact search's comparison at such a price is
// decided without a probe: a bracket top ≥ above covers total and one
// ≤ below does not, the low end ≤ below does not saturate, and the
// bisection steps outside (below, above) go the way the exact ones go.
// Every other comparison probes through certProbe, which decides it as the
// exact sum does. A side that fails to certify is NaN, which no comparison
// passes, so that side probes as the exact search does. By the same
// contract the exact search's sums never decrease from nuLo to nuHi, so its
// decreasing branch is never taken.
func bulkPrice(b BulkWaterSystem, total float64) float64 {
	nuLo, nuHi := b.ZeroDerivRange()
	if nuHi <= nuLo {
		nuHi = nuLo + 1
	}
	below, above := locate(b, total, nuLo, nuHi)
	// phi is the probe at nuHi, taken only where the certificates leave
	// E(nuHi) < total open.
	var phi certProbe
	for iter := 0; !(nuHi >= above); iter++ {
		if !(nuHi <= below) {
			phi = probeAt(b, nuHi)
			if !(phi.vs(b, total) < total) {
				break
			}
		}
		if iter == bracketDoublings {
			break
		}
		nuHi = nuLo + 2*(nuHi-nuLo)
	}
	lo, hi := nuLo, nuHi
	xtol := (hi - lo) * bisectRelTol
	// The exact search's saturation tests, at lo and then at hi. A top
	// ≤ below never covers the total, and any other top the certificates
	// leave open was probed as phi.
	if !(lo <= below) {
		plo := probeAt(b, lo)
		if total <= plo.vs(b, total) {
			return lo
		}
	}
	if !(hi >= above) && (hi <= below || total >= phi.vs(b, total)) {
		return hi
	}
	for i := 0; i < bisectIters && hi-lo > xtol; i++ {
		mid := lo + (hi-lo)/2
		switch {
		case mid <= below:
			lo = mid
		case mid >= above:
			hi = mid
		default:
			p := probeAt(b, mid)
			gm := p.vs(b, total)
			if gm == total {
				return mid
			}
			if gm < total {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	return lo + (hi-lo)/2
}

// locate returns prices below < above with E(below) < total < E(above)
// certified through certProbe, NaN for a side it could not certify. It
// runs a safeguarded Newton iteration on SumAllocSlope's estimate, from
// b.PriceHint() when that lies above nuLo and from the bracket's first top
// nuHi otherwise. The estimates bound the root from below by nuLo and from
// above by nothing at first: a step that leaves that bracket, or a slope
// that is not positive, bisects the bracket, or doubles away from nuLo
// while it has no top. Once a step d is short, d² ≤ w·(x − nuLo), where
// the Newton error after it is of order w, it certifies the prices w on
// either side of x, for w a quarter of the bisection tolerance near x
// (certWidth). Only the certified comparisons are trusted.
func locate(b BulkWaterSystem, total, nuLo, nuHi float64) (below, above float64) {
	below, above = math.NaN(), math.NaN()
	x := b.PriceHint()
	if !(x > nuLo && x < math.Inf(1)) {
		x = nuHi
	}
	l, h := nuLo, math.Inf(1)
	var w float64
	converged := false
	for i := 0; i < locateIters && !converged; i++ {
		est, slope := b.SumAllocSlope(x)
		switch {
		case est < total:
			l = x
		case est > total:
			h = x
		case est != total: // NaN
			return below, above
		}
		next := x - (est-total)/slope
		if !(slope > 0 && next > l && next < h) {
			if h == math.Inf(1) {
				next = nuLo + 2*(x-nuLo)
			} else {
				next = l + (h-l)/2
			}
		}
		w = certWidth(nuLo, nuHi, next)
		d := next - x
		converged = d/(next-nuLo)*d <= w // d² ≤ w·(x − nuLo), without overflow
		x = next
	}
	if !converged {
		return below, above
	}
	if a := x - w; a > nuLo {
		p := probeAt(b, a)
		if p.vs(b, total) < total {
			below = a
		}
	}
	if c := x + w; c < math.Inf(1) {
		p := probeAt(b, c)
		if p.vs(b, total) > total {
			above = c
		}
	}
	return below, above
}

// certWidth is a quarter of the bisection tolerance bulkPrice uses when
// its bracket doubling from [nuLo, nuHi] ends at the first top at or above
// x: the width at which two certificates around a root near x leave about
// one bisection midpoint between them to probe.
func certWidth(nuLo, nuHi, x float64) float64 {
	span := nuHi - nuLo
	for i := 0; span < x-nuLo && i < bracketDoublings; i++ {
		span *= 2
	}
	return span * (bisectRelTol / 4)
}
