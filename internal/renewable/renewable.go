// Package renewable models the three renewable-energy sources of the
// paper's §2.2: on-site generation r(t) (solar panels and wind turbines,
// weather-driven and intermittent), off-site generation f(t) purchased
// through power purchasing agreements (PPAs), and RECs — a fixed tradable
// credit amount Z bought before the budgeting period. The paper drives its
// simulation from 2012 CAISO data for Mountain View/California and then
// rescales it (on-site ≈ 20% of consumption; budget = 92% of the
// carbon-unaware usage, split 40% off-site / 60% RECs); we synthesize
// hourly series with the same intermittency structure and provide the same
// rescaling helpers.
package renewable

import (
	"fmt"
	"math"

	"repro/internal/lyapunov"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SolarYear returns one year of normalized (peak 1) solar output: a
// clear-sky bell between seasonal sunrise and sunset, modulated by an AR(1)
// cloud-cover process.
func SolarYear(seed uint64) *trace.Trace {
	rng := stats.NewRNG(seed)
	cloud := &stats.AR1{Mean: 0.75, Phi: 0.92, Sigma: 0.08, Clamp: true, Lo: 0.1, Hi: 1}
	vals := make([]float64, trace.HoursPerYear)
	for h := range vals {
		day := h / 24
		hod := float64(h % 24)
		// Day length peaks near the summer solstice (day 172).
		daylight := 12 + 2.5*math.Cos(2*math.Pi*float64(day-172)/365)
		sunrise := 12 - daylight/2
		sunset := 12 + daylight/2
		c := cloud.Next(rng)
		if hod < sunrise || hod > sunset {
			continue
		}
		elevation := math.Sin(math.Pi * (hod - sunrise) / daylight)
		// Seasonal irradiance strength: stronger sun in summer.
		strength := 0.8 + 0.2*math.Cos(2*math.Pi*float64(day-172)/365)
		vals[h] = elevation * strength * c
	}
	t := &trace.Trace{Name: "solar-synth", Values: vals}
	stats.Normalize(t.Values)
	return t
}

// WindYear returns one year of normalized (peak 1) wind-farm output: an
// AR(1) wind-speed process with a windier winter/spring season, pushed
// through a standard cubic turbine power curve with cut-in, rated and
// cut-out speeds.
func WindYear(seed uint64) *trace.Trace {
	rng := stats.NewRNG(seed)
	speed := &stats.AR1{Mean: 7, Phi: 0.95, Sigma: 0.9, Clamp: true, Lo: 0, Hi: 30}
	const (
		cutIn  = 3.0
		rated  = 12.0
		cutOut = 25.0
	)
	vals := make([]float64, trace.HoursPerYear)
	for h := range vals {
		day := h / 24
		// Seasonal mean shift: windier around late winter (day 60).
		speed.Mean = 7 + 1.5*math.Cos(2*math.Pi*float64(day-60)/365)
		v := speed.Next(rng)
		switch {
		case v < cutIn || v > cutOut:
			vals[h] = 0
		case v >= rated:
			vals[h] = 1
		default:
			f := (v - cutIn) / (rated - cutIn)
			vals[h] = f * f * f
		}
	}
	t := &trace.Trace{Name: "wind-synth", Values: vals}
	stats.Normalize(t.Values)
	return t
}

// Blend mixes normalized traces with the given weights (renormalized to sum
// 1) and returns a trace normalized to peak 1. It panics on mismatched
// lengths or empty input.
func Blend(traces []*trace.Trace, weights []float64) *trace.Trace {
	if len(traces) == 0 || len(traces) != len(weights) {
		panic("renewable: Blend needs matching non-empty traces and weights")
	}
	n := traces[0].Len()
	var wsum float64
	for i, tr := range traces {
		if tr.Len() != n {
			panic("renewable: Blend length mismatch")
		}
		wsum += weights[i]
	}
	if wsum <= 0 {
		panic("renewable: Blend needs positive total weight")
	}
	vals := make([]float64, n)
	for h := 0; h < n; h++ {
		for i, tr := range traces {
			vals[h] += weights[i] / wsum * tr.Values[h]
		}
	}
	out := &trace.Trace{Name: "blend", Values: vals}
	stats.Normalize(out.Values)
	return out
}

// Portfolio is a data center's renewable position for one budgeting period:
// hourly on-site supply (kW), hourly off-site PPA generation (kWh per slot),
// the REC purchase Z (kWh-equivalent), and the capping aggressiveness α of
// Eq. (10).
type Portfolio struct {
	OnsiteKW   *trace.Trace // r(t)
	OffsiteKWh *trace.Trace // f(t)
	RECsKWh    float64      // Z
	Alpha      float64      // α
}

// Clone returns a shallow copy of the portfolio: the scalar knobs
// (RECsKWh, Alpha) are independent while the generation traces — read-only
// in every consumer — stay shared. Experiment workers that vary portfolio
// scalars concurrently clone first.
func (p *Portfolio) Clone() *Portfolio {
	out := *p
	return &out
}

// Validate reports whether the portfolio is well formed for a horizon of
// the given number of slots.
func (p *Portfolio) Validate(slots int) error {
	if p.OnsiteKW == nil || p.OffsiteKWh == nil {
		return fmt.Errorf("renewable: portfolio missing traces")
	}
	if p.OnsiteKW.Len() < slots || p.OffsiteKWh.Len() < slots {
		return fmt.Errorf("renewable: traces shorter than horizon %d", slots)
	}
	if err := lyapunov.CheckQueueParams(p.Alpha, p.RECsKWh); err != nil {
		return fmt.Errorf("renewable: %w", err)
	}
	return nil
}

// TotalOffsiteKWh returns Σ_t f(t) over the first `slots` hours.
func (p *Portfolio) TotalOffsiteKWh(slots int) float64 {
	return stats.Sum(p.OffsiteKWh.Values[:slots])
}

// BudgetKWh returns the carbon budget α·(Σ f + Z) of Eq. (10)'s right side
// multiplied by J: the total grid energy the data center may draw over the
// horizon while staying carbon neutral.
func (p *Portfolio) BudgetKWh(slots int) float64 {
	return p.Alpha * (p.TotalOffsiteKWh(slots) + p.RECsKWh)
}

// RECPerSlotKWh returns z = α·Z/J, the scaled per-slot REC allowance used in
// the carbon-deficit queue update Eq. (17).
func (p *Portfolio) RECPerSlotKWh(slots int) float64 {
	return p.Alpha * p.RECsKWh / float64(slots)
}

// PaperShapes are the §5.1 portfolio's generation shapes (peak 1), which
// depend only on the seed.
type PaperShapes struct {
	Onsite, Offsite *trace.Trace
}

// NewPaperShapes blends the seed's solar and wind years into the on-site
// (60/40 solar/wind) and off-site (50/50) shapes.
func NewPaperShapes(seed uint64) PaperShapes {
	return PaperShapes{
		Onsite: Blend(
			[]*trace.Trace{SolarYear(seed), WindYear(seed + 1)},
			[]float64{0.6, 0.4},
		),
		Offsite: Blend(
			[]*trace.Trace{SolarYear(seed + 2), WindYear(seed + 3)},
			[]float64{0.5, 0.5},
		),
	}
}

// Portfolio builds the §5.1 configuration around a measured reference
// consumption (in kWh over the horizon, normally the carbon-unaware
// algorithm's yearly usage), scaling the shapes in place:
//
//   - on-site solar+wind scaled so its total equals onsiteFrac of the
//     reference (the paper uses 0.20);
//   - a total budget of budgetFrac × reference (the paper's default 0.92),
//     split offsiteShare into off-site PPA energy (0.40) with the remainder
//     purchased as RECs (0.60);
//   - α = 1 (budget sizing carries the aggressiveness).
//
// It returns the portfolio that holds the scaled shapes. The shapes depend
// only on the seed, so a caller that learns the reference only later
// builds them first.
func (sh PaperShapes) Portfolio(slots int, referenceKWh, onsiteFrac, budgetFrac, offsiteShare float64) *Portfolio {
	ScaleToTotal(sh.Onsite, slots, onsiteFrac*referenceKWh)
	sh.Onsite.Name = "onsite"
	budget := budgetFrac * referenceKWh
	ScaleToTotal(sh.Offsite, slots, offsiteShare*budget)
	sh.Offsite.Name = "offsite"
	return &Portfolio{
		OnsiteKW:   sh.Onsite,
		OffsiteKWh: sh.Offsite,
		RECsKWh:    (1 - offsiteShare) * budget,
		Alpha:      1,
	}
}

// ScaleToTotal rescales tr in place so that its first `slots` values sum to
// total. A trace summing to zero is left unchanged.
func ScaleToTotal(tr *trace.Trace, slots int, total float64) {
	cur := stats.Sum(tr.Values[:slots])
	if cur <= 0 {
		return
	}
	stats.Scale(tr.Values, total/cur)
}
