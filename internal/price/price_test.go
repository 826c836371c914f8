package price

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

func TestCAISOYearBasics(t *testing.T) {
	p := CAISOYear(1)
	if p.Len() != trace.HoursPerYear {
		t.Fatalf("len = %d", p.Len())
	}
	var s stats.Summary
	for h, v := range p.Values {
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("price[%d] = %v", h, v)
		}
		s.Add(v)
	}
	// Mean near the $0.05/kWh base (diurnal/seasonal shapes average above
	// 0.75 baseline but the lognormal noise is mean-one-ish).
	if s.Mean() < 0.02 || s.Mean() > 0.12 {
		t.Errorf("mean price = %v $/kWh, outside plausible CAISO band", s.Mean())
	}
}

func TestPriceFloor(t *testing.T) {
	m := DefaultModel()
	p := m.Year(3)
	for h, v := range p.Values {
		if v < m.FloorUSDPerKWh {
			t.Fatalf("price[%d] = %v below floor", h, v)
		}
	}
}

func TestPriceSpikesOccur(t *testing.T) {
	p := CAISOYear(5)
	var s stats.Summary
	s.AddAll(p.Values)
	if s.Max() < 2*s.Mean() {
		t.Errorf("no visible spikes: max %v vs mean %v", s.Max(), s.Mean())
	}
}

func TestPriceEveningPeak(t *testing.T) {
	p := CAISOYear(7)
	var evening, night stats.Summary
	for h, v := range p.Values {
		switch h % 24 {
		case 18, 19, 20:
			evening.Add(v)
		case 2, 3, 4:
			night.Add(v)
		}
	}
	if evening.Mean() <= night.Mean()*1.1 {
		t.Errorf("no evening peak: evening %v vs night %v", evening.Mean(), night.Mean())
	}
}

func TestPriceSummerPremium(t *testing.T) {
	p := CAISOYear(9)
	mean := func(dayLo, dayHi int) float64 {
		var s stats.Summary
		s.AddAll(p.Values[dayLo*24 : dayHi*24])
		return s.Mean()
	}
	summer := mean(180, 240)
	winter := mean(0, 60)
	if summer <= winter {
		t.Errorf("no summer premium: %v vs %v", summer, winter)
	}
}

func TestPriceDeterministic(t *testing.T) {
	a, b := CAISOYear(11), CAISOYear(11)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
}

func TestCustomModel(t *testing.T) {
	m := Model{BaseUSDPerKWh: 0.10, SpikeProb: 0, SpikeMax: 1, FloorUSDPerKWh: 0.01}
	p := m.Year(13)
	var s stats.Summary
	s.AddAll(p.Values)
	// Doubling the base roughly doubles the mean.
	base := DefaultModel()
	base.SpikeProb = 0
	var sBase stats.Summary
	sBase.AddAll(base.Year(13).Values)
	ratio := s.Mean() / sBase.Mean()
	if math.Abs(ratio-2) > 0.05 {
		t.Errorf("base scaling ratio = %v, want ~2", ratio)
	}
}

// TestYearTabulatedShapes pins that Year's tabulated shapes give the bits
// of the per-hour expression Base·diurnalShape(hod)·seasonalShape(day).
func TestYearTabulatedShapes(t *testing.T) {
	m := DefaultModel()
	got := m.Year(11)
	rng := stats.NewRNG(11)
	noise := &stats.AR1{Mean: 0, Phi: 0.9, Sigma: 0.05, Clamp: true, Lo: -0.6, Hi: 0.6}
	for h, g := range got.Values {
		v := m.BaseUSDPerKWh * diurnalShape(h%24) * seasonalShape(h/24)
		v *= math.Exp(noise.Next(rng))
		if rng.Bernoulli(m.SpikeProb) {
			v *= rng.Uniform(1.5, m.SpikeMax)
		}
		v = math.Max(v, m.FloorUSDPerKWh)
		if math.Float64bits(g) != math.Float64bits(v) {
			t.Fatalf("hour %d: %v, per-hour expression %v", h, g, v)
		}
	}
}
