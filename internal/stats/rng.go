// Package stats provides the deterministic random-number generation and
// statistics toolkit shared by every stochastic component of the COCA
// reproduction: trace synthesis, renewable-energy weather processes,
// electricity-price noise, the GSD Gibbs sampler, and the event-driven
// queueing simulator.
//
// Everything is seeded explicitly so that experiments are reproducible
// bit-for-bit; no package-level global generator is used.
package stats

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random generator with convenience samplers
// for the distributions used throughout the simulator. It wraps a PCG source
// from math/rand/v2 and is NOT safe for concurrent use; give each concurrent
// component its own seeded generator.
type RNG struct {
	r   *rand.Rand
	src *rand.PCG
}

// NewRNG returns a generator seeded with the given seed. Two RNGs created
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	src := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &RNG{r: rand.New(src), src: src}
}

// Reseed rewinds the generator to the exact state NewRNG(seed) would
// produce, reusing the existing allocation. It exists so pooled solver
// engines can be re-armed without fresh RNG allocations.
func (g *RNG) Reseed(seed uint64) {
	g.src.Seed(seed, seed^0x9e3779b97f4a7c15)
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// IntN returns a uniform sample in [0, n). It panics if n <= 0.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uniform returns a uniform sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// LogNormal returns a sample whose logarithm is Gaussian with parameters mu
// and sigma (of the underlying normal, not of the log-normal itself).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.Normal(mu, sigma))
}

// Exponential returns an exponentially distributed sample with the given
// rate (mean 1/rate). It panics if rate <= 0.
func (g *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exponential requires rate > 0")
	}
	return g.r.ExpFloat64() / rate
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}
