package numopt

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestBisectMonotoneIncreasing(t *testing.T) {
	g := func(x float64) float64 { return 2*x + 1 }
	x := BisectMonotone(g, 7, 0, 10, 1e-12, 200)
	if math.Abs(x-3) > 1e-10 {
		t.Errorf("x = %v, want 3", x)
	}
}

func TestBisectMonotoneDecreasing(t *testing.T) {
	g := func(x float64) float64 { return 10 - x }
	x := BisectMonotone(g, 4, 0, 10, 1e-12, 200)
	if math.Abs(x-6) > 1e-10 {
		t.Errorf("x = %v, want 6", x)
	}
}

func TestBisectMonotoneSaturates(t *testing.T) {
	g := func(x float64) float64 { return x }
	if x := BisectMonotone(g, -5, 0, 1, 1e-12, 100); x != 0 {
		t.Errorf("below-range target: x = %v, want 0", x)
	}
	if x := BisectMonotone(g, 5, 0, 1, 1e-12, 100); x != 1 {
		t.Errorf("above-range target: x = %v, want 1", x)
	}
}

func TestMinimizeIntQuadratic(t *testing.T) {
	f := func(x int) float64 { d := float64(x - 137); return d * d }
	x, fx := MinimizeInt(f, 0, 100000, 2)
	if x != 137 || fx != 0 {
		t.Errorf("argmin = %d (f=%v), want 137", x, fx)
	}
}

func TestMinimizeIntEndpoints(t *testing.T) {
	inc := func(x int) float64 { return float64(x) }
	if x, _ := MinimizeInt(inc, 3, 500, 2); x != 3 {
		t.Errorf("increasing f: argmin = %d, want 3", x)
	}
	dec := func(x int) float64 { return float64(-x) }
	if x, _ := MinimizeInt(dec, 3, 500, 2); x != 500 {
		t.Errorf("decreasing f: argmin = %d, want 500", x)
	}
}

func TestMinimizeIntTinyRange(t *testing.T) {
	f := func(x int) float64 { return float64((x - 1) * (x - 1)) }
	if x, _ := MinimizeInt(f, 0, 2, 1); x != 1 {
		t.Errorf("argmin = %d, want 1", x)
	}
	if x, _ := MinimizeInt(f, 5, 5, 1); x != 5 {
		t.Errorf("singleton range: argmin = %d, want 5", x)
	}
}

func TestMinimizeIntPlateau(t *testing.T) {
	// Weakly unimodal with a wide plateau at the bottom.
	f := func(x int) float64 {
		if x >= 40 && x <= 60 {
			return 1
		}
		d := float64(x - 50)
		return 1 + math.Abs(d) - 10
	}
	_, fx := MinimizeInt(f, 0, 1000, 3)
	if fx != 1 {
		t.Errorf("plateau minimum not found: f = %v", fx)
	}
}

func TestMinimizeIntPanicsOnEmptyRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MinimizeInt(func(int) float64 { return 0 }, 5, 4, 1)
}

func TestMinimizeIntMatchesExhaustive(t *testing.T) {
	// Random convex piecewise functions: a|x-c| + b·(x-c)^2 with a kink.
	g := stats.NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		c := float64(g.IntN(200))
		a := g.Uniform(0, 5)
		b := g.Uniform(0, 0.5)
		kink := g.Uniform(0, 50)
		f := func(x int) float64 {
			d := float64(x) - c
			v := a*math.Abs(d) + b*d*d
			if d > kink {
				v += 2 * (d - kink) // extra slope after kink: still convex
			}
			return v
		}
		gotX, gotF := MinimizeInt(f, 0, 300, 2)
		bestF := math.Inf(1)
		for x := 0; x <= 300; x++ {
			if v := f(x); v < bestF {
				bestF = v
			}
		}
		if gotF > bestF+1e-9 {
			t.Fatalf("trial %d: MinimizeInt f=%v at %d, exhaustive best %v", trial, gotF, gotX, bestF)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp wrong")
	}
}

func TestWaterFillQuadraticClosedForm(t *testing.T) {
	// Two uncapped quadratics 0.5·w_i·λ_i²: optimal split is inversely
	// proportional to w_i.
	sys := &quadSystem{w: []float64{1, 3}, caps: []float64{100, 100}}
	out, err := WaterFillInto(sys, 8, 1e-9, nil)
	if err != nil {
		t.Fatal(err)
	}
	// λ1·1 = λ2·3 and λ1+λ2 = 8 → λ1 = 6, λ2 = 2.
	if math.Abs(out[0]-6) > 1e-6 || math.Abs(out[1]-2) > 1e-6 {
		t.Errorf("allocation = %v, want [6 2]", out)
	}
}

func TestWaterFillRespectsCaps(t *testing.T) {
	sys := &quadSystem{w: []float64{1, 1}, caps: []float64{2, 100}}
	out, err := WaterFillInto(sys, 10, 1e-9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] > 2+1e-9 {
		t.Errorf("cap violated: %v", out)
	}
	if math.Abs(out[0]+out[1]-10) > 1e-6 {
		t.Errorf("sum = %v, want 10", out[0]+out[1])
	}
}

func TestWaterFillInfeasible(t *testing.T) {
	sys := &quadSystem{w: []float64{1, 1}, caps: []float64{1, 1}}
	if _, err := WaterFillInto(sys, 5, 1e-9, nil); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
	if _, err := WaterFillInto(sys, -1, 1e-9, nil); err != ErrInfeasible {
		t.Errorf("negative total: want ErrInfeasible, got %v", err)
	}
}

// TestWaterFillRejectsBadTotals pins that a total that is not ≥ 0 — NaN
// included — or beyond capacity is ErrInfeasible on the generic and bulk
// paths. A NaN total used to return a near-empty allocation.
func TestWaterFillRejectsBadTotals(t *testing.T) {
	bulk := newQuadBulk([]float64{1, 1}, []float64{1, 1}, boundCertified)
	for _, total := range []float64{math.NaN(), -1, math.Inf(-1), math.Inf(1), 5} {
		t.Run(fmt.Sprint(total), func(t *testing.T) {
			if out, err := WaterFillInto(&bulk.quadSystem, total, 1e-9, nil); err != ErrInfeasible {
				t.Errorf("WaterFillInto generic: %v, %v; want ErrInfeasible", out, err)
			}
			if out, err := WaterFillInto(bulk, total, 1e-9, nil); err != ErrInfeasible {
				t.Errorf("WaterFillInto bulk: %v, %v; want ErrInfeasible", out, err)
			}
		})
	}
}

func TestWaterFillEdgeTotals(t *testing.T) {
	sys := &quadSystem{w: []float64{2, 1}, caps: []float64{3, 4}}
	out, err := WaterFillInto(sys, 0, 1e-9, nil)
	if err != nil || out[0] != 0 || out[1] != 0 {
		t.Errorf("zero total: %v, %v", out, err)
	}
	out, err = WaterFillInto(sys, 7, 1e-9, nil)
	if err != nil || out[0] != 3 || out[1] != 4 {
		t.Errorf("full capacity: %v, %v", out, err)
	}
}

func TestWaterFillProperty(t *testing.T) {
	// For random capped quadratics and feasible totals, the output must be
	// feasible and satisfy the KKT condition: all coordinates strictly inside
	// (0, cap) share the same marginal cost.
	g := stats.NewRNG(123)
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.IntN(8)
		sys := &quadSystem{w: make([]float64, n), caps: make([]float64, n)}
		var capSum float64
		for i := 0; i < n; i++ {
			sys.w[i] = rng.Uniform(0.1, 10)
			sys.caps[i] = rng.Uniform(0.5, 20)
			capSum += sys.caps[i]
		}
		total := rng.Uniform(0, capSum)
		out, err := WaterFillInto(sys, total, 1e-9, nil)
		if err != nil {
			return false
		}
		var sum float64
		for i, v := range out {
			if v < -1e-9 || v > sys.caps[i]+1e-9 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-total) > 1e-6 {
			return false
		}
		// KKT equal-marginal check for interior coordinates.
		var marginals []float64
		for i, v := range out {
			if v > 1e-6 && v < sys.caps[i]-1e-6 {
				marginals = append(marginals, sys.w[i]*v)
			}
		}
		for i := 1; i < len(marginals); i++ {
			if math.Abs(marginals[i]-marginals[0]) > 1e-3*(1+marginals[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Also drive it with a deterministic seed stream for reproducibility.
	for trial := 0; trial < 100; trial++ {
		if !f(uint64(g.IntN(math.MaxInt))) {
			t.Fatalf("property violated on trial %d", trial)
		}
	}
}

// quadSystem is the WaterSystem of costs 0.5·w_i·λ_i² (derivative w_i·λ_i)
// under caps, plus a linear term off_i·λ_i when off is set.
type quadSystem struct {
	w, caps []float64
	off     []float64 // per-item marginal cost at 0; nil means all 0
}

func (q *quadSystem) offset(i int) float64 {
	if q.off == nil {
		return 0
	}
	return q.off[i]
}

func (q *quadSystem) Items() int                     { return len(q.w) }
func (q *quadSystem) Cap(i int) float64              { return q.caps[i] }
func (q *quadSystem) Deriv(i int, v float64) float64 { return q.offset(i) + q.w[i]*v }
func (q *quadSystem) Alloc(i int, nu float64) float64 {
	return Clamp((nu-q.offset(i))/q.w[i], 0, q.caps[i])
}

// TestWaterFillIntoReusesBuffer pins the allocation contract: a big-enough
// output buffer is reused (same backing array) and the steady-state call
// performs zero heap allocations.
func TestWaterFillIntoReusesBuffer(t *testing.T) {
	sys := &quadSystem{w: []float64{1, 3, 2}, caps: []float64{5, 5, 5}}
	buf := make([]float64, 3)
	out, err := WaterFillInto(sys, 4, 1e-9, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &buf[0] {
		t.Error("WaterFillInto did not reuse the provided buffer")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := WaterFillInto(sys, 4, 1e-9, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WaterFillInto allocated %v objects per run, want 0", allocs)
	}
	// A short buffer must be grown, not written out of bounds.
	short := make([]float64, 1)
	out, err = WaterFillInto(sys, 4, 1e-9, short)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("grown output length = %d, want 3", len(out))
	}
}

// waterFillReference is WaterFillInto's generic path for 0 < total < Σ Cap
// with the bracket and the bisection probing separately: BisectMonotone
// evaluates both endpoints afresh, including the one the bracket loop has
// just evaluated. It is the oracle for the form that hands that value over.
func waterFillReference(sys WaterSystem, total, tol float64) []float64 {
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
	for iter := 0; sumAt(nuHi) < total && iter < 200; iter++ {
		nuHi = nuLo + 2*(nuHi-nuLo)
	}
	nu := BisectMonotone(sumAt, total, nuLo, nuHi, (nuHi-nuLo)*1e-13, 120)
	out := make([]float64, n)
	var got float64
	for i := range out {
		out[i] = sys.Alloc(i, nu)
		got += out[i]
	}
	resid := total - got
	for pass := 0; pass < 4 && math.Abs(resid) > tol; pass++ {
		for i := 0; i < n; i++ {
			if resid > 0 {
				d := math.Min(sys.Cap(i)-out[i], resid)
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
	return out
}

// countingSystem counts the Alloc calls made through a WaterSystem.
type countingSystem struct {
	WaterSystem
	allocs int
}

func (c *countingSystem) Alloc(i int, nu float64) float64 {
	c.allocs++
	return c.WaterSystem.Alloc(i, nu)
}

// slowSystem never covers its total within the bracket's 200 doublings:
// every Deriv(i, 0) is 0, so the bracket starts at [0, 1] and ends at
// [0, 2^200], where the allocation is still ~1e-40 of the capacity.
type slowSystem struct{ caps []float64 }

func (s *slowSystem) Items() int                     { return len(s.caps) }
func (s *slowSystem) Cap(i int) float64              { return s.caps[i] }
func (s *slowSystem) Deriv(i int, v float64) float64 { return v }
func (s *slowSystem) Alloc(i int, nu float64) float64 {
	return Clamp(s.caps[i]*nu/(nu+1e100), 0, s.caps[i])
}

// TestWaterFillIntoReusesBracketProbe pins that handing the bracket's last
// sum to the bisection changes no bit and saves exactly one price probe (n
// Alloc calls), both when the bracket covers the total and when it stops
// at its 200-doubling cap.
func TestWaterFillIntoReusesBracketProbe(t *testing.T) {
	rng := stats.NewRNG(12)
	check := func(label string, sys WaterSystem, total float64) {
		t.Helper()
		n := sys.Items()
		ref := &countingSystem{WaterSystem: sys}
		want := waterFillReference(ref, total, 1e-9)
		cur := &countingSystem{WaterSystem: sys}
		got, err := WaterFillInto(cur, total, 1e-9, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: out[%d] = %v, reference %v", label, i, got[i], want[i])
			}
		}
		if ref.allocs-cur.allocs != n {
			t.Fatalf("%s: %d Alloc calls, reference %d: want exactly one probe (%d calls) saved",
				label, cur.allocs, ref.allocs, n)
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(9)
		sys := &quadSystem{w: make([]float64, n), caps: make([]float64, n)}
		var capSum float64
		for i := 0; i < n; i++ {
			sys.w[i] = rng.Uniform(0.1, 10)
			sys.caps[i] = rng.Uniform(0.5, 20)
			capSum += sys.caps[i]
		}
		check(fmt.Sprintf("quad trial %d", trial), sys, rng.Uniform(0.01, 0.99)*capSum)
	}
	slow := &slowSystem{caps: []float64{3, 5, 7}}
	if s := slow.Alloc(0, math.Pow(2, 200)) * 3; s >= 1 {
		t.Fatalf("slowSystem covers %v at the bracket cap; the cap case is not exercised", s)
	}
	check("bracket cap", slow, 10)
}

// boundMode selects what a quadBulk's SumAllocBound reports.
type boundMode int

const (
	boundCertified boundMode = iota // the class estimate with ClassSumSlack
	boundExact                      // the exact ascending sum with zero slack
	boundNoSlack                    // the class estimate claimed exact: unsound once classes repeat
)

// slopeMode selects what a quadBulk's SumAllocSlope reports. Only
// slopeTrue helps the locator; every other mode is adversarial, and none
// may change a bit.
type slopeMode int

const (
	slopeTrue   slopeMode = iota // the class estimate and its derivative
	slopeNone                    // a NaN estimate: the locator gives up, leaving the certified-only path
	slopeZero                    // the true estimate with slope 0
	slopeNeg                     // slope −1
	slopeNaN                     // slope NaN
	slopeInf                     // slope +Inf
	slopeHuge                    // the true slope ×10⁶
	slopeRandom                  // a random slope of either sign
	numSlopeModes
)

func (m slopeMode) String() string {
	return [...]string{"true", "none", "zero", "neg", "nan", "inf", "huge", "random"}[m]
}

// hintMode selects what a quadBulk's PriceHint reports for a fill at a
// given total, relative to the price root the exact path finds there and
// the bracket [lo, hi] it searches. Only the modes near root help the
// locator; none may change a bit.
type hintMode int

const (
	hintNone     hintMode = iota // NaN: the locator starts at the bracket's first top
	hintRoot                     // root itself
	hintRootUp                   // root·(1 + 10⁻³)
	hintRootDown                 // root·(1 − 10⁻³)
	hintRandom                   // uniform in [lo, hi]
	hintBelowLo                  // below lo, where no allocation moves
	hintLo                       // lo itself
	hintPosInf                   // +Inf
	hintNegInf                   // −Inf
	hintHuge                     // 10³⁰⁰
	numHintModes
)

func (m hintMode) String() string {
	return [...]string{"none", "root", "root-up", "root-down", "random", "below-lo", "lo", "+inf", "-inf", "huge"}[m]
}

// quadBulk is quadSystem with the BulkWaterSystem methods. Items with
// identical (w, cap, offset) form one class, in first-appearance order, and
// SumAllocBound weighs each class's allocation by its member count — the
// estimate the load balancer's class table makes.
type quadBulk struct {
	quadSystem
	mode           boundMode
	slope          slopeMode
	hint           hintMode
	hintNu         float64    // what PriceHint reports; aimHint sets it from hint
	rng            *stats.RNG // slopeRandom's and hintRandom's draws
	cw, ccap, coff []float64  // per class: the shared w, cap and offset
	cnt            []float64  // per class: its member count
}

func newQuadBulk(w, caps []float64, mode boundMode) *quadBulk {
	return newOffsetQuadBulk(w, caps, nil, mode)
}

func newOffsetQuadBulk(w, caps, off []float64, mode boundMode) *quadBulk {
	q := &quadBulk{quadSystem: quadSystem{w: w, caps: caps, off: off}, mode: mode, hintNu: math.NaN(), rng: stats.NewRNG(uint64(len(w)))}
	ids := make(map[[3]float64]int)
	for i := range w {
		key := [3]float64{w[i], caps[i], q.offset(i)}
		r, ok := ids[key]
		if !ok {
			r = len(q.cw)
			ids[key] = r
			q.cw = append(q.cw, w[i])
			q.ccap = append(q.ccap, caps[i])
			q.coff = append(q.coff, q.offset(i))
			q.cnt = append(q.cnt, 0)
		}
		q.cnt[r]++
	}
	return q
}

// classAlloc is Alloc's arithmetic for class r.
func (q *quadBulk) classAlloc(r int, nu float64) float64 {
	return Clamp((nu-q.coff[r])/q.cw[r], 0, q.ccap[r])
}

func (q *quadBulk) SumAlloc(nu float64) float64 {
	var s float64
	for i := range q.w {
		s += q.Alloc(i, nu)
	}
	return s
}

func (q *quadBulk) SumAllocBound(nu float64) (est, slack float64) {
	if q.mode == boundExact {
		return q.SumAlloc(nu), 0
	}
	for r := range q.cw {
		est += q.cnt[r] * q.classAlloc(r, nu)
	}
	if q.mode == boundNoSlack {
		return est, 0
	}
	return est, ClassSumSlack(est, len(q.w), len(q.cw))
}

func (q *quadBulk) SumAllocSlope(nu float64) (est, slope float64) {
	if q.slope == slopeNone {
		return math.NaN(), 1
	}
	for r := range q.cw {
		v := q.classAlloc(r, nu)
		est += q.cnt[r] * v
		if v > 0 && v < q.ccap[r] {
			slope += q.cnt[r] / q.cw[r]
		}
	}
	switch q.slope {
	case slopeZero:
		slope = 0
	case slopeNeg:
		slope = -1
	case slopeNaN:
		slope = math.NaN()
	case slopeInf:
		slope = math.Inf(1)
	case slopeHuge:
		slope *= 1e6
	case slopeRandom:
		slope *= q.rng.Uniform(-2, 4)
	}
	return est, slope
}

func (q *quadBulk) AllocInto(out []float64, nu float64) float64 {
	var s float64
	for i := range out {
		out[i] = q.Alloc(i, nu)
		s += out[i]
	}
	return s
}

func (q *quadBulk) ZeroDerivRange() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range q.w {
		d0 := q.Deriv(i, 0)
		if d0 < lo {
			lo = d0
		}
		if d0 > hi {
			hi = d0
		}
	}
	return lo, hi
}

func (q *quadBulk) CapSum() float64 {
	var s float64
	for _, c := range q.caps {
		s += c
	}
	return s
}

func (q *quadBulk) CapSumBound() (est, slack float64) {
	if q.mode == boundExact {
		return q.CapSum(), 0
	}
	for r := range q.ccap {
		est += q.cnt[r] * q.ccap[r]
	}
	if q.mode == boundNoSlack {
		return est, 0
	}
	return est, ClassSumSlack(est, len(q.w), len(q.cw))
}

func (q *quadBulk) PriceHint() float64 { return q.hintNu }

// with returns a copy of q, sharing its items and its hint, that reports
// mode and slope.
func (q *quadBulk) with(mode boundMode, slope slopeMode) *quadBulk {
	c := *q
	c.mode, c.slope = mode, slope
	return &c
}

// withHint returns a copy of q, sharing its items, whose hint follows mode.
func (q *quadBulk) withHint(mode hintMode) *quadBulk {
	c := *q
	c.hint = mode
	return &c
}

// aimHint sets q's PriceHint for a fill at total from q's hint mode, the
// exact path's price there and the bracket it searches.
func (q *quadBulk) aimHint(total float64) {
	lo, hi := q.ZeroDerivRange()
	if hi <= lo {
		hi = lo + 1
	}
	for iter := 0; q.SumAlloc(hi) < total && iter < 200; iter++ {
		hi = lo + 2*(hi-lo)
	}
	root := itemPrice(&q.quadSystem, total)
	switch q.hint {
	case hintNone:
		q.hintNu = math.NaN()
	case hintRoot:
		q.hintNu = root
	case hintRootUp:
		q.hintNu = root * (1 + 1e-3)
	case hintRootDown:
		q.hintNu = root * (1 - 1e-3)
	case hintRandom:
		q.hintNu = q.rng.Uniform(lo, hi)
	case hintBelowLo:
		q.hintNu = lo - 1 - math.Abs(lo)
	case hintLo:
		q.hintNu = lo
	case hintPosInf:
		q.hintNu = math.Inf(1)
	case hintNegInf:
		q.hintNu = math.Inf(-1)
	case hintHuge:
		q.hintNu = 1e300
	}
}

// probeLog records the estimate of every probe of a quadBulk, and counts
// the exact sums and slope sweeps taken.
type probeLog struct {
	*quadBulk
	ests          []float64
	exact, slopes int
}

func (p *probeLog) SumAllocSlope(nu float64) (float64, float64) {
	p.slopes++
	return p.quadBulk.SumAllocSlope(nu)
}

func (p *probeLog) SumAllocBound(nu float64) (float64, float64) {
	est, slack := p.quadBulk.SumAllocBound(nu)
	p.ests = append(p.ests, est)
	return est, slack
}

func (p *probeLog) SumAlloc(nu float64) float64 {
	p.exact++
	return p.quadBulk.SumAlloc(nu)
}

// classQuad draws a duplicate-heavy quadBulk: n items, each a copy of one of
// classes random (w, cap) pairs. It reports true slopes.
func classQuad(rng *stats.RNG, n, classes int, mode boundMode) *quadBulk {
	cw, ccap := make([]float64, classes), make([]float64, classes)
	for r := range cw {
		cw[r] = rng.Uniform(0.1, 10)
		ccap[r] = rng.Uniform(0.5, 20)
	}
	w, caps := make([]float64, n), make([]float64, n)
	for i := range w {
		r := rng.IntN(classes)
		w[i], caps[i] = cw[r], ccap[r]
	}
	return newQuadBulk(w, caps, mode)
}

// exactProbes water-fills total on q with exact probe sums and no
// locator, and returns those sums in probe order: the sums at every
// bisection midpoint of the fill.
func exactProbes(q *quadBulk, total float64) []float64 {
	log := &probeLog{quadBulk: q.with(boundExact, slopeNone)}
	if _, err := WaterFillInto(log, total, 1e-9, nil); err != nil {
		panic(err)
	}
	return log.ests
}

// certResult is one certified-versus-exact comparison.
type certResult struct {
	agree bool // every path below agrees with the generic path bit for bit
	exact int  // exact sums q's own bounds and slopes fell back to
	hit   bool // some exact probe sum equals total: the equality branches ran
	// Probes and slope sweeps of the fill with q's own bounds and slopes,
	// and probes of the same fill without the locator.
	probes, slopes, unlocated int
}

// compareCertified water-fills total on q five ways — with q's own bounds,
// slopes and hint (certified and located), with q's bounds and no locator
// (certified only), with exact bulk sums with and without q's slopes and
// hint, and on the generic per-item path — and compares them with the last.
func compareCertified(q *quadBulk, total float64) certResult {
	want, err := WaterFillInto(&q.quadSystem, total, 1e-9, nil)
	if err != nil {
		panic(err)
	}
	q = q.withHint(q.hint)
	q.aimHint(total)
	res := certResult{agree: true}
	for k, sys := range []*quadBulk{q.with(boundExact, slopeNone), q.with(boundExact, q.slope), q.with(q.mode, slopeNone), q} {
		log := &probeLog{quadBulk: sys}
		got, err := WaterFillInto(log, total, 1e-9, nil)
		if err != nil {
			panic(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				res.agree = false
			}
		}
		switch k {
		case 2:
			res.unlocated = len(log.ests)
		case 3:
			res.exact, res.probes, res.slopes = log.exact, len(log.ests), log.slopes
		}
	}
	for _, s := range exactProbes(q, total) {
		res.hit = res.hit || s == total
	}
	return res
}

// forcedTotals returns totals set to exact probe sums of a fill at total:
// the last three probes (where the bisection has nearly converged) and two
// drawn at random, so fills at these totals meet an exact tie.
func forcedTotals(rng *stats.RNG, q *quadBulk, total float64) []float64 {
	sums := exactProbes(q, total)
	var out []float64
	for j := max(0, len(sums)-3); j < len(sums); j++ {
		out = append(out, sums[j])
	}
	for k := 0; k < 2; k++ {
		out = append(out, sums[rng.IntN(len(sums))])
	}
	return out
}

// certCorpus tallies compareCertified over randomized duplicate-heavy
// systems of up to 10,000 items built with the given bound and slope
// modes, at random totals and at totals forced onto exact probe sums. The
// fills take the hint modes in turn.
type certCorpus struct {
	cases, mismatches, fallbacks, hits int
	probes, slopes, unlocated          int
	first                              string // the first mismatch
	// Per hint mode: fills, and their probes and slope sweeps.
	hinted                 [numHintModes]int
	hintProbes, hintSlopes [numHintModes]int
}

func runCertCorpus(mode boundMode, slope slopeMode) certCorpus {
	rng := stats.NewRNG(1313)
	var c certCorpus
	shapes := []struct{ n, classes int }{
		{1, 1}, {2, 1}, {3, 2}, {7, 3}, {7, 7}, {40, 4}, {200, 4}, {200, 200},
		{1000, 12}, {10000, 3}, {10000, 40},
	}
	for _, sh := range shapes {
		trials := 6
		if sh.n >= 1000 {
			trials = 2
		}
		for trial := 0; trial < trials; trial++ {
			q := classQuad(rng, sh.n, sh.classes, mode).with(mode, slope)
			total := rng.Uniform(0.01, 0.99) * q.CapSum()
			for k, tot := range append([]float64{total}, forcedTotals(rng, q, total)...) {
				h := hintMode(c.cases % int(numHintModes))
				r := compareCertified(q.withHint(h), tot)
				c.hinted[h]++
				c.hintProbes[h] += r.probes
				c.hintSlopes[h] += r.slopes
				c.cases++
				c.fallbacks += r.exact
				c.probes += r.probes
				c.slopes += r.slopes
				c.unlocated += r.unlocated
				if r.hit {
					c.hits++
				}
				if !r.agree {
					c.mismatches++
					if c.first == "" {
						c.first = fmt.Sprintf("n=%d classes=%d trial %d total #%d (%v), %v hint", sh.n, sh.classes, trial, k, tot, h)
					}
				}
			}
		}
	}
	return c
}

// TestWaterFillCertifiedMatchesExact pins that certified probes and the
// located price search change no bit: on duplicate-heavy systems (real
// classes, up to 10,000 items) the certified and located, certified-only,
// exact-bulk and generic paths agree bit for bit, including at totals equal
// to an exact probe sum, where the estimate cannot decide, the exact
// fallback runs and the gm == target return fires — under true slopes and
// under every adversarial slope. With true slopes the locator must also
// skip most probes; a locator that silently stops locating fails here.
func TestWaterFillCertifiedMatchesExact(t *testing.T) {
	for slope := slopeTrue; slope < numSlopeModes; slope++ {
		t.Run(slope.String(), func(t *testing.T) {
			c := runCertCorpus(boundCertified, slope)
			if c.mismatches > 0 {
				t.Fatalf("%d of %d fills differ from the exact path; first: %s", c.mismatches, c.cases, c.first)
			}
			if c.hits == 0 {
				t.Fatal("no total met an exact probe sum; the tie branches are not exercised")
			}
			if c.fallbacks == 0 {
				t.Fatal("no probe fell back to the exact sum; the fallback is not exercised")
			}
			t.Logf("%d fills, %d at an exact tie, %d exact fallbacks; per fill %.1f probes and %.1f slope sweeps (%.1f probes unlocated)",
				c.cases, c.hits, c.fallbacks, float64(c.probes)/float64(c.cases),
				float64(c.slopes)/float64(c.cases), float64(c.unlocated)/float64(c.cases))
			for h := hintNone; h < numHintModes; h++ {
				t.Logf("%v hint: %d fills, %.1f probes and %.1f slope sweeps per fill", h, c.hinted[h],
					float64(c.hintProbes[h])/float64(c.hinted[h]), float64(c.hintSlopes[h])/float64(c.hinted[h]))
			}
			if slope == slopeTrue && 2*c.probes > c.unlocated {
				t.Fatalf("located fills take %d probes, unlocated %d: the locator skips under half", c.probes, c.unlocated)
			}
		})
	}
}

// TestWaterFillCapacityCertified pins capSumVs: on duplicate-heavy systems,
// at totals within a few dozen ulps of the capacity sum C and of the
// feasibility edge C·(1+1e-12)+tol, where CapSumBound's estimate cannot
// settle the capacity tests, a fill with certified bounds must fail or
// succeed as the per-item path does and return its allocation bit for bit.
func TestWaterFillCapacityCertified(t *testing.T) {
	const tol = 1e-9
	rng := stats.NewRNG(0xCA95)
	undecided := 0
	for trial := 0; trial < 40; trial++ {
		n := 20 + rng.IntN(400)
		q := classQuad(rng, n, 1+rng.IntN(5), boundCertified)
		c := q.CapSum()
		for _, edge := range []float64{c, c*(1+1e-12) + tol} {
			for k := -40; k <= 40; k += 1 + rng.IntN(4) {
				total := edge + float64(k)*math.Abs(math.Nextafter(edge, math.Inf(1))-edge)
				want, wantErr := WaterFillInto(&q.quadSystem, total, tol, nil)
				got, gotErr := WaterFillInto(q, total, tol, nil)
				if (gotErr != nil) != (wantErr != nil) {
					t.Fatalf("trial %d, total %v (C %v): certified err %v, per-item err %v", trial, total, c, gotErr, wantErr)
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("trial %d, total %v (C %v): item %d = %v, per-item %v", trial, total, c, i, got[i], want[i])
					}
				}
				if est, slack := q.CapSumBound(); math.Abs(total-est) <= slack {
					undecided++
				}
			}
		}
	}
	if undecided == 0 {
		t.Fatal("no total fell inside the capacity estimate's slack; the exact fallback is not exercised")
	}
}

// plateauQuad draws a duplicate-heavy quadBulk whose sum is flat over a
// price interval while some allocations still move. Two low classes reach
// their caps at price full; a dust class, whose every allocation is far
// below an ulp of the sum, rises across the middle of (full, full+gap); a
// mid class starts at full+gap and a top class higher still, so the plateau
// is not the bracket's top. The plateau is narrow enough that the bracket's
// first midpoint lies below it, so the locator reaches it by Newton steps,
// not at that midpoint. It returns the system and the exact plateau sum.
func plateauQuad(rng *stats.RNG, n int) (*quadBulk, float64) {
	const classes = 5
	cw, ccap := make([]float64, classes), make([]float64, classes)
	for r := range cw {
		cw[r], ccap[r] = rng.Uniform(0.1, 10), rng.Uniform(0.5, 20)
	}
	full := math.Max(cw[0]*ccap[0], cw[1]*ccap[1])
	gap := rng.Uniform(0.05, 0.2) * full
	ccap[2] = 1e-22
	cw[2] = gap / 3 / ccap[2] // rises from 0 to its cap over gap/3
	coff := []float64{0, 0, full + gap/3, full + gap, full + gap*rng.Uniform(1.5, 4)}
	w, caps, off := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range w {
		r := i % classes // every class present, whatever n
		if i >= classes {
			r = rng.IntN(classes)
		}
		w[i], caps[i], off[i] = cw[r], ccap[r], coff[r]
	}
	q := newOffsetQuadBulk(w, caps, off, boundCertified)
	return q, q.SumAlloc(full + gap/2)
}

// TestWaterFillLocatedPlateau pins the strictness of the locator's
// certificate: at a total equal to the sum on a plateau of the price, the
// exact path returns the first midpoint that lands on the plateau, where
// E(m) == total, and the dust class's allocation there records which
// midpoint that was. A locator that certified E(a) ≤ total instead of
// E(a) < total would settle such a midpoint without a probe and return
// another plateau price. Every slope mode runs with every hint mode, so
// the locator also starts on the plateau itself (the root hint) and on
// either side of it.
func TestWaterFillLocatedPlateau(t *testing.T) {
	rng := stats.NewRNG(4242)
	for _, n := range []int{5, 40, 400, 4000} {
		for trial := 0; trial < 6; trial++ {
			q, total := plateauQuad(rng, n)
			sums := exactProbes(q, total)
			if len(sums) < 3 || sums[len(sums)-1] != total {
				t.Fatalf("n=%d trial %d: no bisection midpoint landed on the plateau", n, trial)
			}
			for slope := slopeTrue; slope < numSlopeModes; slope++ {
				for hint := hintNone; hint < numHintModes; hint++ {
					if r := compareCertified(q.with(boundCertified, slope).withHint(hint), total); !r.agree {
						t.Fatalf("n=%d trial %d, %v slopes, %v hint: the fill on the plateau differs from the exact path", n, trial, slope, hint)
					}
				}
			}
		}
	}
}

// TestWaterFillLocatedBracketTop pins how a certificate decides the bracket
// doubling: a top at or below the certified price below has E(top) < total,
// so the exact search doubles past it, and so must the certified one. Each
// trial aims the hint and the total so that the locator stops at once (the
// slope estimate at the hint x is the total itself) and certifies below =
// x − w exactly at one of the doubling's tops. A doubling that took a top
// equal to below as covering would stop there and return that top.
func TestWaterFillLocatedBracketTop(t *testing.T) {
	rng := stats.NewRNG(2718)
	aimed := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.IntN(8)
		w, caps := make([]float64, n), make([]float64, n)
		for i := range w {
			w[i], caps[i] = rng.Uniform(0.1, 10), rng.Uniform(0.5, 20)
		}
		q := newQuadBulk(w, caps, boundExact)
		lo, top := q.ZeroDerivRange()
		if top <= lo {
			top = lo + 1
		}
		first := top
		for j := rng.IntN(8); j > 0; j-- {
			top = lo + 2*(top-lo)
		}
		wc := certWidth(lo, first, math.Nextafter(top, math.Inf(1)))
		x := top + wc
		total, slope := q.SumAllocSlope(x)
		if certWidth(lo, first, x) != wc || x-wc != top || !(slope > 0) ||
			!(q.SumAlloc(top) < total) || !(total < q.CapSum()) {
			continue
		}
		aimed++
		want, err := WaterFillInto(&q.quadSystem, total, 1e-9, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []boundMode{boundExact, boundCertified} {
			sys := q.with(mode, slopeTrue)
			sys.hintNu = x
			got, err := WaterFillInto(sys, total, 1e-9, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d, bound mode %d: out[%d] = %v, exact path %v (top %v, hint %v)",
						trial, mode, i, got[i], want[i], top, x)
				}
			}
		}
	}
	if aimed < 100 {
		t.Fatalf("only %d of 400 trials put the certificate on a bracket top", aimed)
	}
}

// TestWaterFillCertifiedCatchesZeroSlack is the corpus's mutation check: a
// system that claims its class estimate is exact (slack 0) on
// duplicate-heavy input must make the comparison fail.
func TestWaterFillCertifiedCatchesZeroSlack(t *testing.T) {
	if c := runCertCorpus(boundNoSlack, slopeNone); c.mismatches == 0 {
		t.Fatalf("zero slack went unnoticed over %d fills", c.cases)
	}
}

// TestWaterFillIntoBulkMatchesGeneric pins that the BulkWaterSystem path
// (certified probes, the bulk capacity sum and the bulk bracket) reproduces
// the per-item path bit for bit.
func TestWaterFillIntoBulkMatchesGeneric(t *testing.T) {
	rng := stats.NewRNG(13)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(9)
		w, caps := make([]float64, n), make([]float64, n)
		var capSum float64
		for i := 0; i < n; i++ {
			w[i] = rng.Uniform(0.1, 10)
			caps[i] = rng.Uniform(0.5, 20)
			capSum += caps[i]
		}
		q := newQuadBulk(w, caps, boundCertified)
		total := rng.Uniform(0, capSum)
		want, err := WaterFillInto(&q.quadSystem, total, 1e-9, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := WaterFillInto(q, total, 1e-9, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: bulk out[%d] = %v, generic %v", trial, i, got[i], want[i])
			}
		}
	}
}
