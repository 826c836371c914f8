package stats

// MovingAverage computes the trailing moving average of a fixed window over a
// stream, as used for the 45-day (1080-hour) smoothing in the paper's
// Fig. 2(c,d). Until the window fills, the average is over the observations
// seen so far. The zero value is not usable; construct with NewMovingAverage.
type MovingAverage struct {
	window []float64
	next   int
	filled bool
	sum    float64
}

// NewMovingAverage returns a moving average over the given window size.
// It panics if window <= 0.
func NewMovingAverage(window int) *MovingAverage {
	if window <= 0 {
		panic("stats: NewMovingAverage requires window > 0")
	}
	return &MovingAverage{window: make([]float64, window)}
}

// Add pushes an observation and returns the current moving average.
func (m *MovingAverage) Add(x float64) float64 {
	if m.filled {
		m.sum -= m.window[m.next]
	}
	m.window[m.next] = x
	m.sum += x
	m.next++
	if m.next == len(m.window) {
		m.next = 0
		m.filled = true
	}
	return m.Value()
}

// Value returns the current moving average (0 if nothing added yet).
func (m *MovingAverage) Value() float64 {
	n := m.N()
	if n == 0 {
		return 0
	}
	return m.sum / float64(n)
}

// N returns the number of observations currently inside the window.
func (m *MovingAverage) N() int {
	if m.filled {
		return len(m.window)
	}
	return m.next
}

// RunningAverage computes the prefix mean of a stream: after t+1 additions it
// holds (1/(t+1))·Σ_{τ=0..t} x(τ). This matches the averaging used in the
// paper's Fig. 3 ("summing up all the values from time 0 to time t and then
// dividing the sum by t+1"). The zero value is ready to use.
type RunningAverage struct {
	n   int
	sum float64
	c   float64 // Kahan compensation
}

// Add pushes an observation and returns the running average.
func (r *RunningAverage) Add(x float64) float64 {
	y := x - r.c
	t := r.sum + y
	r.c = (t - r.sum) - y
	r.sum = t
	r.n++
	return r.Value()
}

// Value returns the current running average (0 if nothing added yet).
func (r *RunningAverage) Value() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// MovingAverageSeries maps a full series through a trailing moving average of
// the given window, returning a series of equal length.
func MovingAverageSeries(xs []float64, window int) []float64 {
	ma := NewMovingAverage(window)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = ma.Add(x)
	}
	return out
}

// RunningAverageSeries maps a full series through the prefix mean, returning
// a series of equal length.
func RunningAverageSeries(xs []float64) []float64 {
	var ra RunningAverage
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = ra.Add(x)
	}
	return out
}

// AR1 is a first-order autoregressive process
// x(t+1) = mean + phi·(x(t) − mean) + sigma·ε, ε ~ N(0,1),
// used for weather-driven renewable output and price noise. Values may be
// clamped to [Lo, Hi] when Clamp is true.
type AR1 struct {
	Mean  float64
	Phi   float64
	Sigma float64
	Clamp bool
	Lo    float64
	Hi    float64

	x       float64
	started bool
}

// Next advances the process one step using rng and returns the new value.
func (a *AR1) Next(rng *RNG) float64 {
	if !a.started {
		a.x = a.Mean
		a.started = true
	}
	a.x = a.Mean + a.Phi*(a.x-a.Mean) + rng.Normal(0, a.Sigma)
	if a.Clamp {
		if a.x < a.Lo {
			a.x = a.Lo
		}
		if a.x > a.Hi {
			a.x = a.Hi
		}
	}
	return a.x
}
