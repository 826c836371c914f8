// Package trace synthesizes the hourly workload traces that drive the
// simulation study (§5.1). The paper uses two proprietary logs — the FIU
// campus server I/O log for calendar year 2012 and the one-week MSR
// Cambridge RAID I/O trace of Feb 2007 (repeated over a year with ±40%
// noise) — neither of which is publicly distributable, so this package
// builds synthetic equivalents that reproduce the features the paper calls
// out: strong diurnal and weekly structure, seasonal drift with a marked
// late-July surge for FIU, storage-style burstiness for MSR, and occasional
// flash spikes. All generators are seeded and deterministic.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/stats"
)

// HoursPerYear is the number of one-hour slots in the paper's budgeting
// period (365 days).
const HoursPerYear = 365 * 24

// HoursPerWeek is the number of one-hour slots in one week.
const HoursPerWeek = 7 * 24

// Trace is an hourly time series. Values are arbitrary-unit rates; use
// Normalized/ScaledToPeak to convert to request rates.
type Trace struct {
	Name   string
	Values []float64
}

// Len returns the number of hourly samples.
func (t *Trace) Len() int { return len(t.Values) }

// At returns the value at hour i, wrapping around for i beyond the end so a
// short trace can drive a longer simulation.
func (t *Trace) At(i int) float64 {
	if len(t.Values) == 0 {
		return 0
	}
	return t.Values[i%len(t.Values)]
}

// Max returns the largest sample.
func (t *Trace) Max() float64 { return stats.MaxOf(t.Values) }

// Normalized returns a copy rescaled so the maximum equals 1.
func (t *Trace) Normalized() *Trace {
	out := t.Copy()
	stats.Normalize(out.Values)
	return out
}

// ScaledToPeak returns a copy rescaled so the maximum equals peak — the
// paper scales the FIU trace so the peak arrival rate is 1.1 M req/s.
func (t *Trace) ScaledToPeak(peak float64) *Trace {
	out := t.Normalized()
	stats.Scale(out.Values, peak)
	out.Name = t.Name
	return out
}

// Copy returns a deep copy.
func (t *Trace) Copy() *Trace {
	return &Trace{Name: t.Name, Values: append([]float64(nil), t.Values...)}
}

// Slice returns a copy of hours [lo, hi).
func (t *Trace) Slice(lo, hi int) *Trace {
	if lo < 0 || hi > len(t.Values) || lo > hi {
		panic(fmt.Sprintf("trace: bad slice [%d,%d) of %d", lo, hi, len(t.Values)))
	}
	return &Trace{
		Name:   t.Name,
		Values: append([]float64(nil), t.Values[lo:hi]...),
	}
}

// dayOfYear and hourOfDay decompose an hour index (hour 0 = midnight,
// day 0 = Jan 1, and day 0 is a Sunday in our synthetic calendar).
func dayOfYear(hour int) int { return hour / 24 }
func hourOfDay(hour int) int { return hour % 24 }
func dayOfWeek(hour int) int { return (hour / 24) % 7 } // 0 = Sunday

// diurnal returns the within-day activity profile peaking mid-afternoon, in
// [low, 1].
func diurnal(hod int, low float64) float64 {
	// Peak at 14:00, trough at 02:00.
	phase := 2 * math.Pi * float64(hod-14) / 24
	return low + (1-low)*(0.5+0.5*math.Cos(phase))
}

// weekly returns the day-of-week multiplier for a campus workload.
func weekly(dow int) float64 {
	switch dow {
	case 0: // Sunday
		return 0.70
	case 6: // Saturday
		return 0.75
	default:
		return 1.0
	}
}

// fiuSeasonal returns the academic-calendar envelope for day d, including
// the late-July surge the paper highlights in Fig. 1(a) (their 2012 trace
// "exhibits a significant increase around late July due to the summer
// activities").
func fiuSeasonal(d int) float64 {
	day := float64(d)
	// Base academic rhythm: busy spring term, May dip, quiet early summer.
	base := 0.62 + 0.08*math.Sin(2*math.Pi*(day-80)/365)
	// End-of-spring slump (May: days 120–150).
	base -= 0.10 * gaussianBump(day, 135, 14)
	// Late-July step up (around day 205) that persists through the fall
	// term, modeled as a logistic step plus a surge bump at onset.
	step := 0.28 / (1 + math.Exp(-(day-205)/4))
	surge := 0.12 * gaussianBump(day, 210, 8)
	// Winter-break decline (mid-December onward).
	winter := 0.18 / (1 + math.Exp(-(day-350)/3))
	return base + step + surge - winter
}

func gaussianBump(x, center, width float64) float64 {
	z := (x - center) / width
	return math.Exp(-0.5 * z * z)
}

// FIUYear synthesizes one year (8760 hours) of the FIU-like campus
// workload, normalized to peak 1.
func FIUYear(seed uint64) *Trace {
	rng := stats.NewRNG(seed)
	noise := &stats.AR1{Mean: 0, Phi: 0.85, Sigma: 0.035, Clamp: true, Lo: -0.5, Hi: 0.5}
	vals := make([]float64, HoursPerYear)
	spikeLeft := 0
	spikeMag := 1.0
	for h := range vals {
		v := fiuSeasonal(dayOfYear(h)) * weekly(dayOfWeek(h)) * diurnal(hourOfDay(h), 0.45)
		v *= math.Exp(noise.Next(rng))
		// Flash crowds: rare multi-hour spikes (unforeseeable traffic bursts,
		// §1).
		if spikeLeft == 0 && rng.Bernoulli(0.003) {
			spikeLeft = 1 + rng.IntN(4)
			spikeMag = rng.Uniform(1.4, 2.1)
		}
		if spikeLeft > 0 {
			v *= spikeMag
			spikeLeft--
		}
		if v < 0.01 {
			v = 0.01
		}
		vals[h] = v
	}
	t := &Trace{Name: "fiu-synth", Values: vals}
	stats.Normalize(t.Values)
	return t
}

// MSRWeek synthesizes one week (168 hours) of the MSR-like storage
// workload: business-hours activity on weekdays, a nightly backup burst in
// the small hours, and heavier-tailed noise than the campus trace.
func MSRWeek(seed uint64) *Trace {
	rng := stats.NewRNG(seed)
	vals := make([]float64, HoursPerWeek)
	for h := range vals {
		dow, hod := dayOfWeek(h), hourOfDay(h)
		business := 0.35 + 0.65*businessHours(hod)
		if dow == 0 || dow == 6 {
			business *= 0.55
		}
		// Nightly backup window around 02:00 on every day.
		backup := 0.9 * gaussianBump(float64(hod), 2, 1.2)
		v := business + backup
		v *= rng.LogNormal(0, 0.25)
		if rng.Bernoulli(0.02) {
			v *= rng.Uniform(1.5, 2.5)
		}
		vals[h] = v
	}
	t := &Trace{Name: "msr-synth-week", Values: vals}
	stats.Normalize(t.Values)
	return t
}

func businessHours(hod int) float64 {
	// Ramp 08:00–18:00 with a lunchtime plateau.
	if hod < 7 || hod > 20 {
		return 0.1
	}
	phase := 2 * math.Pi * float64(hod-13) / 14
	return 0.5 + 0.5*math.Cos(phase)
}

// MSRYear tiles one synthetic MSR week across a year, adding independent
// uniform noise of up to ±noiseFrac per hour — exactly the paper's own
// recipe ("repeat the trace for one year by adding random noises of up to
// ±40%", §5.1, for which noiseFrac = 0.4). The result is normalized to peak
// 1.
func MSRYear(seed uint64, noiseFrac float64) *Trace {
	if noiseFrac < 0 || noiseFrac >= 1 {
		panic("trace: MSRYear noiseFrac must be in [0,1)")
	}
	week := MSRWeek(seed)
	rng := stats.NewRNG(seed ^ 0xabcdef)
	vals := make([]float64, HoursPerYear)
	for h := range vals {
		v := week.At(h) * (1 + rng.Uniform(-noiseFrac, noiseFrac))
		if v < 0.005 {
			v = 0.005
		}
		vals[h] = v
	}
	t := &Trace{Name: "msr-synth-year", Values: vals}
	stats.Normalize(t.Values)
	return t
}

// Constant returns a flat trace, useful for tests and controlled studies.
func Constant(name string, value float64, hours int) *Trace {
	vals := make([]float64, hours)
	for i := range vals {
		vals[i] = value
	}
	return &Trace{Name: name, Values: vals}
}

// WriteCSV writes the trace as "hour,value" rows with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"hour", t.Name}); err != nil {
		return err
	}
	for i, v := range t.Values {
		if err := cw.Write([]string{strconv.Itoa(i), strconv.FormatFloat(v, 'g', -1, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
