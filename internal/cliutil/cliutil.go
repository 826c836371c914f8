// Package cliutil holds flag validation shared by the coca binaries
// (cocasim, cocad) and, via WorkersFor, the worker-count rule library
// entry points enforce themselves. Each helper returns a usage-shaped
// error naming the flag (or owner), so main can print it and exit 2
// without re-deriving the message.
package cliutil

import (
	"fmt"
	"math"
	"strings"
)

// Workers validates a -workers flag. 0 is the documented "all cores"
// sentinel and positive values are literal pool sizes; negatives used to
// fall through the `Workers > 0` check and silently mean "all cores" too,
// which hid typos like -workers -4.
func Workers(v int) error {
	if v < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 means all cores, 1 means sequential); got %d", v)
	}
	return nil
}

// WorkersFor is the Workers rule for library entry points rather than
// flags: owner names the knob in the message (e.g. "experiments.Config.
// Workers", "geo.Fleet.SetWorkers"). 0 keeps each caller's documented
// default (all cores for the experiment pool, sequential for geo) and
// positives are literal pool sizes; negatives are an error everywhere —
// they used to silently mean "all cores" in the experiment pool, the bug
// this helper closes.
func WorkersFor(owner string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0; got %d", owner, v)
	}
	return nil
}

// NonNegativeCount validates a count flag where 0 means "use the default".
func NonNegativeCount(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("%s must be >= 0 (0 means the default); got %d", name, v)
	}
	return nil
}

// PositiveCount validates a count flag that has no zero sentinel.
func PositiveCount(name string, v int) error {
	if v <= 0 {
		return fmt.Errorf("%s must be > 0; got %d", name, v)
	}
	return nil
}

// PositiveFloat requires a finite, strictly positive value.
func PositiveFloat(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return fmt.Errorf("%s must be a finite value > 0; got %v", name, v)
	}
	return nil
}

// NonNegativeFloat requires a finite, non-negative value.
func NonNegativeFloat(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("%s must be a finite value >= 0; got %v", name, v)
	}
	return nil
}

// OneOf validates an enumerated string flag against its legal choices.
// The error spells out the full choice list so main can print it verbatim.
func OneOf(name, v string, choices ...string) error {
	for _, c := range choices {
		if v == c {
			return nil
		}
	}
	return fmt.Errorf("%s must be one of %s; got %q", name, strings.Join(choices, "|"), v)
}

// FirstError returns the first non-nil error, so main can validate a flag
// block in one expression.
func FirstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
