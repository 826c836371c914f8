// Package price models the hourly real-time electricity market the data
// center participates in (§2.1, §5.1): the paper uses 2012 CAISO hourly
// prices for Mountain View, which we synthesize with the same qualitative
// structure — a two-peak diurnal shape (morning and evening ramps), a
// seasonal level shift (expensive summer afternoons), persistent lognormal
// noise, and the rare extreme price spikes characteristic of real-time
// markets. Prices are in $/kWh (CAISO's ≈ $30–60/MWh ≈ $0.03–0.06/kWh).
package price

import (
	"math"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Model configures the synthetic market.
type Model struct {
	// BaseUSDPerKWh is the average price level. The default CAISOYear uses
	// 0.05 $/kWh ($50/MWh).
	BaseUSDPerKWh float64
	// SpikeProb is the per-hour probability of a price spike.
	SpikeProb float64
	// SpikeMax is the maximum spike multiplier.
	SpikeMax float64
	// FloorUSDPerKWh clips the price from below (real-time markets can go
	// negative; the paper's cost model assumes non-negative prices).
	FloorUSDPerKWh float64
}

// DefaultModel returns CAISO-like parameters.
func DefaultModel() Model {
	return Model{
		BaseUSDPerKWh:  0.05,
		SpikeProb:      0.002,
		SpikeMax:       4,
		FloorUSDPerKWh: 0.005,
	}
}

// Year synthesizes one year of hourly prices under the model.
func (m Model) Year(seed uint64) *trace.Trace {
	rng := stats.NewRNG(seed)
	noise := &stats.AR1{Mean: 0, Phi: 0.9, Sigma: 0.05, Clamp: true, Lo: -0.6, Hi: 0.6}
	vals := make([]float64, trace.HoursPerYear)
	var season float64
	for h := range vals {
		day := h / 24
		hod := h % 24
		if hod == 0 {
			season = seasonalShape(day)
		}
		v := m.BaseUSDPerKWh * diurnal[hod] * season
		v *= math.Exp(noise.Next(rng))
		if rng.Bernoulli(m.SpikeProb) {
			v *= rng.Uniform(1.5, m.SpikeMax)
		}
		if v < m.FloorUSDPerKWh {
			v = m.FloorUSDPerKWh
		}
		vals[h] = v
	}
	return &trace.Trace{Name: "price-synth", Values: vals}
}

// diurnal tabulates diurnalShape by hour of day.
var diurnal = func() (t [24]float64) {
	for hod := range t {
		t[hod] = diurnalShape(hod)
	}
	return t
}()

// diurnalShape is the normalized two-peak daily profile of real-time
// markets: a morning ramp around 08:00 and a stronger evening peak around
// 19:00, with a cheap overnight trough.
func diurnalShape(hod int) float64 {
	morning := 0.25 * gaussian(float64(hod), 8, 2.0)
	evening := 0.45 * gaussian(float64(hod), 19, 2.5)
	return 0.75 + morning + evening
}

// seasonalShape raises summer prices (air-conditioning demand peaks around
// day 200) by up to 25%.
func seasonalShape(day int) float64 {
	return 1 + 0.25*gaussian(float64(day), 200, 55)
}

func gaussian(x, center, width float64) float64 {
	z := (x - center) / width
	return math.Exp(-0.5 * z * z)
}

// CAISOYear synthesizes one year of hourly prices with the default model.
func CAISOYear(seed uint64) *trace.Trace {
	return DefaultModel().Year(seed)
}
