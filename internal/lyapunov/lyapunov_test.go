package lyapunov

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeficitQueueUpdate(t *testing.T) {
	dq := NewDeficitQueue(1, 2) // z = 2
	// q = [0 + 10 − 3 − 2]^+ = 5.
	if got := dq.Update(10, 3); got != 5 {
		t.Errorf("after first update q = %v, want 5", got)
	}
	// q = [5 + 1 − 10 − 2]^+ = 0.
	if got := dq.Update(1, 10); got != 0 {
		t.Errorf("queue went negative-ish: %v", got)
	}
	dq.Update(100, 0)
	dq.Reset()
	if dq.Len() != 0 {
		t.Errorf("Reset left q = %v", dq.Len())
	}
}

func TestDeficitQueueAlphaScalesOffsite(t *testing.T) {
	dq := NewDeficitQueue(0.5, 0)
	// q = [0 + 10 − 0.5·10 − 0]^+ = 5.
	if got := dq.Update(10, 10); got != 5 {
		t.Errorf("q = %v, want 5", got)
	}
}

func TestDeficitQueueClampsNegativeInputs(t *testing.T) {
	dq := NewDeficitQueue(1, 0)
	dq.Update(5, 0)
	if got := dq.Update(-3, -2); got != 5 {
		t.Errorf("negative inputs changed q to %v, want 5", got)
	}
}

// badQueueParams are (α, allowance) pairs CheckQueueParams must refuse: a
// NaN or infinite value in either would turn q(t) into NaN.
var badQueueParams = []struct {
	name       string
	alpha, rec float64
}{
	{"alpha-zero", 0, 1},
	{"alpha-negative", -1, 1},
	{"alpha-nan", math.NaN(), 1},
	{"alpha-inf", math.Inf(1), 1},
	{"alpha-neg-inf", math.Inf(-1), 1},
	{"rec-negative", 1, -1},
	{"rec-nan", 1, math.NaN()},
	{"rec-inf", 1, math.Inf(1)},
}

// TestCheckQueueParams pins the shared predicate: finite α > 0 and a
// finite allowance ≥ 0.
func TestCheckQueueParams(t *testing.T) {
	for _, tc := range badQueueParams {
		if err := CheckQueueParams(tc.alpha, tc.rec); err == nil {
			t.Errorf("%s: CheckQueueParams(%v, %v) accepted", tc.name, tc.alpha, tc.rec)
		}
	}
	for _, ok := range [][2]float64{{1, 0}, {0.5, 3}, {math.SmallestNonzeroFloat64, math.MaxFloat64}} {
		if err := CheckQueueParams(ok[0], ok[1]); err != nil {
			t.Errorf("CheckQueueParams(%v, %v): %v", ok[0], ok[1], err)
		}
	}
}

func TestDeficitQueuePanics(t *testing.T) {
	for _, tc := range badQueueParams {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewDeficitQueue(%v, %v) did not panic", tc.name, tc.alpha, tc.rec)
				}
			}()
			NewDeficitQueue(tc.alpha, tc.rec)
		}()
	}
}

func TestDeficitQueueNonNegativeProperty(t *testing.T) {
	// Under any sequence of updates the queue is non-negative and obeys the
	// one-step update identity exactly.
	f := func(seed uint64, ys, fs []float64) bool {
		dq := NewDeficitQueue(1, 1)
		prev := 0.0
		n := len(ys)
		if len(fs) < n {
			n = len(fs)
		}
		for i := 0; i < n; i++ {
			y := math.Abs(math.Mod(ys[i], 1000))
			ff := math.Abs(math.Mod(fs[i], 1000))
			if math.IsNaN(y) {
				y = 0
			}
			if math.IsNaN(ff) {
				ff = 0
			}
			got := dq.Update(y, ff)
			want := math.Max(0, prev+y-ff-1)
			if got < 0 || math.Abs(got-want) > 1e-9 {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVScheduleBasics(t *testing.T) {
	s := VSchedule{T: 10, Vs: []float64{100, 200, 300}}
	if err := s.Validate(30); err != nil {
		t.Fatal(err)
	}
	if s.R() != 3 || s.Slots() != 30 {
		t.Errorf("R=%d Slots=%d", s.R(), s.Slots())
	}
	if s.V(0) != 100 || s.V(9) != 100 || s.V(10) != 200 || s.V(29) != 300 {
		t.Error("V(t) lookup wrong")
	}
	if !s.FrameStart(0) || !s.FrameStart(20) || s.FrameStart(5) {
		t.Error("FrameStart wrong")
	}
}

func TestVScheduleValidateErrors(t *testing.T) {
	cases := []struct {
		s     VSchedule
		slots int
	}{
		{VSchedule{T: 0, Vs: []float64{1}}, 10},
		{VSchedule{T: 10, Vs: nil}, 10},
		{VSchedule{T: 10, Vs: []float64{1}}, 20},
		{VSchedule{T: 10, Vs: []float64{0}}, 10},
		{VSchedule{T: 10, Vs: []float64{math.NaN()}}, 10},
	}
	for i, c := range cases {
		if err := c.s.Validate(c.slots); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestConstantV(t *testing.T) {
	s := ConstantV(240, 4, 2190)
	if err := s.Validate(8760); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []int{0, 5000, 8759} {
		if s.V(tt) != 240 {
			t.Errorf("V(%d) = %v", tt, s.V(tt))
		}
	}
}

func TestBoundsConstants(t *testing.T) {
	b := Bounds{YMax: 10, ZMax: 6, RMax: 4}
	if got := b.B(); got != 50 {
		t.Errorf("B = %v, want 50", got)
	}
	if got := b.D(); got != 0.5*10*10 {
		t.Errorf("D = %v, want 50", got)
	}
	if got := b.C(1); got != b.B() {
		t.Errorf("C(1) = %v, want B", got)
	}
	if got := b.C(3); got != b.B()+2*b.D() {
		t.Errorf("C(3) = %v", got)
	}
}

func TestCostBound(t *testing.T) {
	b := Bounds{YMax: 1, ZMax: 1, RMax: 1}
	s := VSchedule{T: 2, Vs: []float64{10, 20}}
	opt := []float64{3, 5}
	// (3+5)/2 + C(2)/2 · (1/10 + 1/20).
	want := 4 + b.C(2)/2*(0.1+0.05)
	if got := CostBound(b, s, opt); math.Abs(got-want) > 1e-12 {
		t.Errorf("CostBound = %v, want %v", got, want)
	}
}

func TestDeficitBound(t *testing.T) {
	b := Bounds{YMax: 1, ZMax: 1, RMax: 1}
	s := VSchedule{T: 4, Vs: []float64{10, 10}}
	opt := []float64{3, 3}
	want := 2 * math.Sqrt(b.C(4)+10*(3-1)) / (2 * 2)
	if got := DeficitBound(b, s, opt, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("DeficitBound = %v, want %v", got, want)
	}
	// gMin above G* is clamped inside the sqrt, never NaN.
	if got := DeficitBound(b, s, opt, 1e9); math.IsNaN(got) {
		t.Error("DeficitBound NaN for large gMin")
	}
}
