package reqsim

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Closure-free samplers. The test oracle (oracle_test.go) takes closure
// samplers — fine at toy scale, but a closure call per event is an indirect
// branch the fast engine does not want, and a closure cannot be validated,
// printed or compared. Here a sampler is a small value type: a kind tag plus
// precomputed parameters, sampled through one switch. The built-in kinds
// draw *exactly* the same RNG sequence as the oracle's corresponding
// constructors, which is what makes the bit-for-bit parity tests possible.

type serviceKind uint8

const (
	serviceInvalid serviceKind = iota
	serviceExponential
	serviceDeterministic
	serviceHyperexp
	servicePareto
)

// ServiceSampler draws i.i.d. service requirements (units of work, mean 1
// by the paper's convention; a server at rate x completes one unit per 1/x
// seconds, so a requirement of 1 at rate 10 takes 100 ms alone, the paper's
// §5.1 setup). The zero value is invalid; use a constructor.
type ServiceSampler struct {
	kind serviceKind
	mean float64
	// Kind-specific precomputed parameters:
	//   exponential: r1 = 1/mean
	//   hyperexp:    p, r1 = 1/m1, r2 = 1/m2
	//   pareto:      p = shape α, r1 = scale x_m
	p, r1, r2 float64
}

// ExponentialService returns an exponential requirement with the given
// mean. Draw-for-draw identical to the oracle's exponential sampler.
func ExponentialService(mean float64) ServiceSampler {
	return ServiceSampler{kind: serviceExponential, mean: mean, r1: 1 / mean}
}

// DeterministicService returns a constant requirement (no RNG draw),
// matching the oracle.
func DeterministicService(mean float64) ServiceSampler {
	return ServiceSampler{kind: serviceDeterministic, mean: mean}
}

// HyperexpService returns a two-phase hyperexponential requirement: mean
// `mean`, phase balance p ∈ (0,1), phase means mean/(2p) and mean/(2(1−p)),
// a coefficient of variation above 1 to exercise PS insensitivity.
// Draw-for-draw identical to the oracle.
func HyperexpService(mean, p float64) ServiceSampler {
	if p <= 0 || p >= 1 {
		panic("reqsim: HyperexpService requires p in (0,1)")
	}
	return ServiceSampler{
		kind: serviceHyperexp, mean: mean, p: p,
		r1: 1 / (mean / (2 * p)),
		r2: 1 / (mean / (2 * (1 - p))),
	}
}

// ParetoService returns an (unbounded) Pareto requirement with the given
// mean and tail index alpha ∈ (1, 2]: finite mean, infinite variance — the
// heavy-tailed regime where the M/G/1/PS *mean* is still insensitive but
// convergence is glacial and tail latencies explode. The scale is
// x_m = mean·(α−1)/α so E[S] = mean. One uniform draw per sample.
func ParetoService(mean, alpha float64) ServiceSampler {
	if alpha <= 1 || alpha > 2 {
		panic("reqsim: ParetoService requires alpha in (1,2]")
	}
	return ServiceSampler{
		kind: servicePareto, mean: mean, p: alpha,
		r1: mean * (alpha - 1) / alpha,
	}
}

// Mean returns the distribution's mean requirement.
func (s ServiceSampler) Mean() float64 { return s.mean }

// Valid reports whether the sampler was built by a constructor.
func (s ServiceSampler) Valid() bool {
	return s.kind != serviceInvalid && !math.IsNaN(s.mean) && s.mean > 0 && !math.IsInf(s.mean, 0)
}

// String names the sampler for reports and bench sections.
func (s ServiceSampler) String() string {
	switch s.kind {
	case serviceExponential:
		return fmt.Sprintf("exp(mean=%g)", s.mean)
	case serviceDeterministic:
		return fmt.Sprintf("det(mean=%g)", s.mean)
	case serviceHyperexp:
		return fmt.Sprintf("hyperexp(mean=%g,p=%g)", s.mean, s.p)
	case servicePareto:
		return fmt.Sprintf("pareto(mean=%g,alpha=%g)", s.mean, s.p)
	}
	return "invalid"
}

// sample draws one requirement. The switch compiles to a jump table; no
// closure, no allocation.
func (s ServiceSampler) sample(rng *stats.RNG) float64 {
	switch s.kind {
	case serviceExponential:
		return rng.Exponential(s.r1)
	case serviceDeterministic:
		return s.mean
	case serviceHyperexp:
		if rng.Bernoulli(s.p) {
			return rng.Exponential(s.r1)
		}
		return rng.Exponential(s.r2)
	case servicePareto:
		// Inverse CDF: x_m · (1−u)^(−1/α); u ∈ [0,1) keeps 1−u > 0.
		u := rng.Float64()
		return s.r1 * math.Pow(1-u, -1/s.p)
	}
	panic("reqsim: invalid ServiceSampler (use a constructor)")
}

type arrivalKind uint8

const (
	arrivalPoisson arrivalKind = iota
	arrivalOnOff
)

// ArrivalProcess generates the arrival stream. The zero value is Poisson at
// Config.ArrivalRPS — the oracle-compatible path. OnOffArrivals is the
// bursty arm: a two-state Markov-modulated Poisson process whose analytic
// "prediction" λ̄/(x−λ̄) is knowably wrong (the PS insensitivity argument
// needs Poisson arrivals), exactly the regime the paper's Eq. (4) cannot
// see and learning-augmented policies exploit.
type ArrivalProcess struct {
	kind arrivalKind
	// On/off parameters: burst-phase and idle-phase Poisson rates and the
	// exponential mean sojourn seconds of each phase.
	rateOn, rateOff float64
	meanOn, meanOff float64
	swOn, swOff     float64 // precomputed 1/meanOn, 1/meanOff sojourn rates
}

// OnOffArrivals returns a bursty two-phase arrival process: Poisson at
// rateOn during bursts and rateOff between them, with exponential phase
// sojourns of the given means (seconds). rateOff may be 0 (pure on/off).
func OnOffArrivals(rateOn, rateOff, meanOnSec, meanOffSec float64) ArrivalProcess {
	if rateOn <= 0 || rateOff < 0 || meanOnSec <= 0 || meanOffSec <= 0 {
		panic("reqsim: OnOffArrivals requires rateOn > 0, rateOff >= 0 and positive phase means")
	}
	return ArrivalProcess{
		kind:   arrivalOnOff,
		rateOn: rateOn, rateOff: rateOff,
		meanOn: meanOnSec, meanOff: meanOffSec,
		swOn: 1 / meanOnSec, swOff: 1 / meanOffSec,
	}
}

// Bursty reports whether the process is the on/off arm (not Poisson).
func (a ArrivalProcess) Bursty() bool { return a.kind == arrivalOnOff }

// MeanRate returns the time-averaged arrival rate: the Poisson λ itself, or
// the sojourn-weighted mixture of the on/off phase rates. This is the λ the
// analytic model would plug into λ/(x−λ).
func (a ArrivalProcess) MeanRate(poissonRate float64) float64 {
	if a.kind == arrivalPoisson {
		return poissonRate
	}
	return (a.rateOn*a.meanOn + a.rateOff*a.meanOff) / (a.meanOn + a.meanOff)
}
