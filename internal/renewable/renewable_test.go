package renewable

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

func TestSolarYearBasics(t *testing.T) {
	s := SolarYear(1)
	if s.Len() != trace.HoursPerYear {
		t.Fatalf("len = %d", s.Len())
	}
	if math.Abs(s.Max()-1) > 1e-12 {
		t.Errorf("max = %v", s.Max())
	}
	for h, v := range s.Values {
		if v < 0 || v > 1 {
			t.Fatalf("value[%d] = %v out of [0,1]", h, v)
		}
	}
}

func TestSolarZeroAtNight(t *testing.T) {
	s := SolarYear(2)
	for day := 0; day < 365; day++ {
		if v := s.Values[day*24+0]; v != 0 { // midnight
			t.Fatalf("day %d midnight output %v", day, v)
		}
		if v := s.Values[day*24+23]; v != 0 { // 11 pm
			t.Fatalf("day %d 23:00 output %v", day, v)
		}
	}
}

func TestSolarPeaksMidday(t *testing.T) {
	s := SolarYear(3)
	var noon, morning stats.Summary
	for day := 0; day < 365; day++ {
		noon.Add(s.Values[day*24+12])
		morning.Add(s.Values[day*24+8])
	}
	if noon.Mean() <= morning.Mean() {
		t.Errorf("noon %v not above morning %v", noon.Mean(), morning.Mean())
	}
}

func TestSolarSeasonal(t *testing.T) {
	s := SolarYear(4)
	energy := func(dayLo, dayHi int) float64 {
		return stats.Sum(s.Values[dayLo*24 : dayHi*24])
	}
	summer := energy(152, 244) // Jun–Aug
	winter := energy(0, 60)    // Jan–Feb
	// Same number of days compared.
	if summer*float64(60) <= winter*float64(92)*1.1 {
		t.Errorf("summer energy not clearly above winter: %v vs %v (per-day)",
			summer/92, winter/60)
	}
}

func TestWindYearBasics(t *testing.T) {
	w := WindYear(1)
	if w.Len() != trace.HoursPerYear {
		t.Fatalf("len = %d", w.Len())
	}
	var zero, rated int
	for h, v := range w.Values {
		if v < 0 || v > 1 {
			t.Fatalf("value[%d] = %v", h, v)
		}
		if v == 0 {
			zero++
		}
		if v == 1 {
			rated++
		}
	}
	// Intermittency: both calms and rated-output hours must occur.
	if zero == 0 {
		t.Error("wind never calm — not intermittent")
	}
	if rated == 0 {
		t.Error("wind never at rated output")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for name, gen := range map[string]func(uint64) *trace.Trace{
		"solar": SolarYear, "wind": WindYear,
	} {
		a, b := gen(9), gen(9)
		for i := range a.Values {
			if a.Values[i] != b.Values[i] {
				t.Fatalf("%s: divergence at %d", name, i)
			}
		}
	}
}

func TestBlend(t *testing.T) {
	a := trace.Constant("a", 1, 10)
	b := trace.Constant("b", 0, 10)
	m := Blend([]*trace.Trace{a, b}, []float64{3, 1})
	// Before normalization the blend is 0.75 everywhere; after, 1.
	for _, v := range m.Values {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("blend value %v", v)
		}
	}
}

func TestBlendPanics(t *testing.T) {
	a := trace.Constant("a", 1, 10)
	short := trace.Constant("s", 1, 5)
	for _, bad := range []func(){
		func() { Blend(nil, nil) },
		func() { Blend([]*trace.Trace{a}, []float64{1, 2}) },
		func() { Blend([]*trace.Trace{a, short}, []float64{1, 1}) },
		func() { Blend([]*trace.Trace{a}, []float64{0}) },
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

func TestPortfolioBudgetMath(t *testing.T) {
	p := &Portfolio{
		OnsiteKW:   trace.Constant("r", 2, 100),
		OffsiteKWh: trace.Constant("f", 3, 100),
		RECsKWh:    50,
		Alpha:      0.9,
	}
	if err := p.Validate(100); err != nil {
		t.Fatal(err)
	}
	if got := p.TotalOffsiteKWh(100); math.Abs(got-300) > 1e-9 {
		t.Errorf("TotalOffsite = %v", got)
	}
	if got := p.BudgetKWh(100); math.Abs(got-0.9*350) > 1e-9 {
		t.Errorf("Budget = %v, want %v", got, 0.9*350)
	}
	if got := p.RECPerSlotKWh(100); math.Abs(got-0.9*0.5) > 1e-12 {
		t.Errorf("z = %v, want %v", got, 0.45)
	}
}

func TestPortfolioValidateErrors(t *testing.T) {
	good := &Portfolio{
		OnsiteKW:   trace.Constant("r", 1, 10),
		OffsiteKWh: trace.Constant("f", 1, 10),
		RECsKWh:    1, Alpha: 1,
	}
	cases := []struct {
		name   string
		mutate func(*Portfolio)
	}{
		{"nil onsite", func(p *Portfolio) { p.OnsiteKW = nil }},
		{"nil offsite", func(p *Portfolio) { p.OffsiteKWh = nil }},
		{"short trace", func(p *Portfolio) { p.OnsiteKW = trace.Constant("r", 1, 5) }},
		{"negative RECs", func(p *Portfolio) { p.RECsKWh = -1 }},
		{"NaN RECs", func(p *Portfolio) { p.RECsKWh = math.NaN() }},
		{"infinite RECs", func(p *Portfolio) { p.RECsKWh = math.Inf(1) }},
		{"zero alpha", func(p *Portfolio) { p.Alpha = 0 }},
		{"NaN alpha", func(p *Portfolio) { p.Alpha = math.NaN() }},
		{"infinite alpha", func(p *Portfolio) { p.Alpha = math.Inf(1) }},
		{"negative infinite alpha", func(p *Portfolio) { p.Alpha = math.Inf(-1) }},
	}
	for _, tc := range cases {
		p := *good
		tc.mutate(&p)
		if err := p.Validate(10); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestPaperPortfolioCalibration(t *testing.T) {
	const slots = trace.HoursPerYear
	const reference = 1.55e8 // kWh: the paper's carbon-unaware yearly usage
	p := NewPaperShapes(7).Portfolio(slots, reference, 0.20, 0.92, 0.40)
	if err := p.Validate(slots); err != nil {
		t.Fatal(err)
	}
	onsite := stats.Sum(p.OnsiteKW.Values[:slots])
	if math.Abs(onsite-0.20*reference) > 1e-3*reference {
		t.Errorf("onsite total = %v, want %v", onsite, 0.20*reference)
	}
	budget := p.BudgetKWh(slots)
	if math.Abs(budget-0.92*reference) > 1e-3*reference {
		t.Errorf("budget = %v, want %v", budget, 0.92*reference)
	}
	offsite := p.TotalOffsiteKWh(slots)
	if math.Abs(offsite-0.40*0.92*reference) > 1e-3*reference {
		t.Errorf("offsite = %v, want 40%% of budget", offsite)
	}
	if math.Abs(p.RECsKWh-0.60*0.92*reference) > 1e-3*reference {
		t.Errorf("RECs = %v, want 60%% of budget", p.RECsKWh)
	}
}

func TestScaleToTotal(t *testing.T) {
	tr := trace.Constant("x", 2, 10)
	ScaleToTotal(tr, 10, 100)
	if got := stats.Sum(tr.Values); math.Abs(got-100) > 1e-9 {
		t.Errorf("sum = %v", got)
	}
	zero := trace.Constant("z", 0, 10)
	ScaleToTotal(zero, 10, 100) // must not divide by zero
	if stats.Sum(zero.Values) != 0 {
		t.Error("zero trace should be unchanged")
	}
}
