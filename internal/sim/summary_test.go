package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lyapunov"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// TestRunSummaryMatchesRun pins the record-free summary run to the
// recorded one: for every policy family and slot-accounting variant the
// summary is bit-equal to Summarize of Run, observers see the same records
// in the same order, and a sabotaged slot fails with the same error at the
// same slot.
func TestRunSummaryMatchesRun(t *testing.T) {
	base, _, err := simtest.Build(simtest.Options{Slots: 4 * 24, N: 120, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		set  func(*sim.Scenario)
	}{
		{"plain", func(*sim.Scenario) {}},
		{"switching", func(sc *sim.Scenario) { sc.SwitchCostKWh = 0.231 }},
		{"half-hour", func(sc *sim.Scenario) { sc.SlotHours = 0.5 }},
		{"overestimate", func(sc *sim.Scenario) { sc.Overestimate = 1.1 }},
	}
	policies := []struct {
		name string
		new  func(*sim.Scenario) (sim.Policy, error)
	}{
		{"coca", func(sc *sim.Scenario) (sim.Policy, error) {
			return core.New(core.FromScenario(sc, lyapunov.ConstantV(5e4, 1, sc.Slots)))
		}},
		{"perfecthp", func(sc *sim.Scenario) (sim.Policy, error) { return baseline.NewPerfectHP(sc, 24) }},
		{"opt", func(sc *sim.Scenario) (sim.Policy, error) { return baseline.NewOPT(sc) }},
		{"unaware", func(sc *sim.Scenario) (sim.Policy, error) { return baseline.NewUnaware(sc), nil }},
	}
	for _, v := range variants {
		sc := base.Clone()
		v.set(sc)
		for _, pc := range policies {
			t.Run(v.name+"/"+pc.name, func(t *testing.T) {
				fresh := func() sim.Policy {
					p, err := pc.new(sc)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				var ranSeen, sumSeen []sim.SlotRecord
				res, err := sim.RunObserved(sc, fresh(), func(r sim.SlotRecord) { ranSeen = append(ranSeen, r) })
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.RunSummary(sc, fresh(), func(r sim.SlotRecord) { sumSeen = append(sumSeen, r) })
				if err != nil {
					t.Fatal(err)
				}
				// %+v prints every float in its shortest round-trip form,
				// so equal strings mean equal bits.
				if want := sim.Summarize(sc, res); fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
					t.Fatalf("summary run\n%+v\nrecorded run\n%+v", got, want)
				}
				if !reflect.DeepEqual(sumSeen, ranSeen) || !reflect.DeepEqual(sumSeen, res.Records) {
					t.Fatal("observers of the summary run saw other records than the recorded run's")
				}

				const failAt = 37
				ranSeen, sumSeen = nil, nil
				_, ranErr := sim.RunObserved(sc, &sabotagePolicy{inner: fresh(), failAt: failAt, fleet: sc.N, armed: true},
					func(r sim.SlotRecord) { ranSeen = append(ranSeen, r) })
				_, sumErr := sim.RunSummary(sc, &sabotagePolicy{inner: fresh(), failAt: failAt, fleet: sc.N, armed: true},
					func(r sim.SlotRecord) { sumSeen = append(sumSeen, r) })
				if ranErr == nil || !errors.Is(sumErr, sim.ErrOverload) || sumErr.Error() != ranErr.Error() {
					t.Fatalf("sabotaged slot: summary run error %v, recorded run error %v", sumErr, ranErr)
				}
				if len(sumSeen) != failAt || !reflect.DeepEqual(sumSeen, ranSeen) {
					t.Fatalf("sabotaged run observed %d slots (recorded run %d), want %d", len(sumSeen), len(ranSeen), failAt)
				}
			})
		}
	}
}
