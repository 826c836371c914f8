package sim_test

// Failed-step semantics: a rejected Step must leave the engine parked at
// the failed slot with no record appended and no observers fired, and a
// successful retry must continue the run as if the failure never happened.
// Together with the policies' commit-in-Observe discipline this pins the
// state-desync bugfix: a policy that speculates in Decide (COCA's
// switching-cost anchor) cannot drift when a slot is rejected and retried.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lyapunov"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// sabotagePolicy wraps an inner policy and corrupts its configuration at
// one chosen slot (an over-fleet active count the engine must reject).
type sabotagePolicy struct {
	inner  sim.Policy
	failAt int
	fleet  int
	armed  bool
}

func (s *sabotagePolicy) Name() string { return s.inner.Name() }

func (s *sabotagePolicy) Decide(obs sim.Observation) (sim.Config, error) {
	cfg, err := s.inner.Decide(obs)
	if err != nil {
		return cfg, err
	}
	if s.armed && obs.Slot == s.failAt {
		s.armed = false
		return sim.Config{Speed: cfg.Speed, Active: s.fleet + 1}, nil
	}
	return cfg, nil
}

func (s *sabotagePolicy) Observe(fb sim.Feedback) { s.inner.Observe(fb) }

func buildCoca(t *testing.T, sc *sim.Scenario) *core.Policy {
	t.Helper()
	p, err := core.New(core.FromScenario(sc, lyapunov.ConstantV(5e4, 1, sc.Slots)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEngineFailedStepLeavesStateUntouched(t *testing.T) {
	sc, _, err := simtest.Build(simtest.Options{Slots: 3 * 24, N: 80, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sc.SwitchCostKWh = 0.231 // make the prevActive anchor cost-relevant

	// Reference: a clean run with no failures.
	clean, err := sim.Run(sc, buildCoca(t, sc))
	if err != nil {
		t.Fatal(err)
	}

	// Sabotaged run: the policy returns an illegal config at failAt once.
	const failAt = 7
	var seen []int
	observer := func(rec sim.SlotRecord) { seen = append(seen, rec.Slot) }
	sab := &sabotagePolicy{inner: buildCoca(t, sc), failAt: failAt, fleet: sc.N, armed: true}
	e, err := sim.NewEngine(sc, sab, observer)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < failAt; i++ {
		if err := e.Step(); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}

	if err := e.Step(); err == nil {
		t.Fatal("sabotaged step did not fail")
	}
	if got := e.Slot(); got != failAt {
		t.Fatalf("engine advanced to slot %d past the failed slot %d", got, failAt)
	}
	if got := len(e.Result().Records); got != failAt {
		t.Fatalf("failed step appended a record: %d records, want %d", got, failAt)
	}
	if got := len(seen); got != failAt {
		t.Fatalf("failed step notified observers: %d notifications, want %d", got, failAt)
	}

	// Retry (the sabotage disarmed itself) and run to completion.
	for !e.Done() {
		if err := e.Step(); err != nil {
			t.Fatalf("slot %d retry/continue: %v", e.Slot(), err)
		}
	}

	// Every settled slot was observed exactly once, in order.
	if len(seen) != sc.Slots {
		t.Fatalf("observed %d slots, want %d", len(seen), sc.Slots)
	}
	for i, s := range seen {
		if s != i {
			t.Fatalf("observation %d was slot %d", i, s)
		}
	}
	// The recovered run must be bit-for-bit identical to the clean run: the
	// rejected slot left neither the engine nor the policy (queue,
	// switching anchor) with any trace of the failure.
	if !reflect.DeepEqual(clean.Records, e.Result().Records) {
		for i := range clean.Records {
			if clean.Records[i] != e.Result().Records[i] {
				t.Fatalf("slot %d diverged after retry:\nclean: %+v\nretry: %+v",
					i, clean.Records[i], e.Result().Records[i])
			}
		}
		t.Fatal("records diverged after retry")
	}
}
