package simtest_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dcmodel"
	"repro/internal/lyapunov"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// This file pins the Engine/Ledger refactor to the seed implementation:
// goldenRun is a verbatim copy of the pre-refactor monolithic sim.Run slot
// accounting (electricity, delay, switching, deficit computed inline), and
// every policy family must reproduce its SlotRecords bit-for-bit through
// the new step-wise Engine charging via dcmodel.Ledger.

// goldenRun drives a policy with the seed repository's slot loop.
func goldenRun(sc *sim.Scenario, p sim.Policy) (*sim.Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	res := &sim.Result{Policy: p.Name(), Records: make([]sim.SlotRecord, 0, sc.Slots)}
	prevActive := 0
	zPerSlot := sc.Portfolio.RECPerSlotKWh(sc.Slots)
	for t := 0; t < sc.Slots; t++ {
		obs := sc.Observe(t)
		cfg, err := p.Decide(obs)
		if err != nil {
			return nil, fmt.Errorf("golden: slot %d: %w", t, err)
		}
		rec := goldenOperate(sc, t, cfg, prevActive, zPerSlot)
		res.Records = append(res.Records, rec)
		p.Observe(sim.Feedback{
			Slot:       t,
			GridKWh:    rec.GridKWh,
			OffsiteKWh: rec.OffsiteKWh,
			TotalUSD:   rec.TotalUSD,
		})
		prevActive = cfg.Active
	}
	return res, nil
}

// goldenOperate is the seed's (*Scenario).operate arithmetic, inlined. The
// feasibility gates are omitted — the policies under test only emit legal
// configurations — but every charged quantity follows the original
// evaluation order exactly.
func goldenOperate(sc *sim.Scenario, t int, cfg sim.Config, prevActive int, zPerSlot float64) sim.SlotRecord {
	lambda := sc.Workload.Values[t]
	price := sc.Price.Values[t]
	onsite := sc.Portfolio.OnsiteKW.Values[t]
	offsite := sc.Portfolio.OffsiteKWh.Values[t]

	rec := sim.SlotRecord{
		Slot: t, LambdaRPS: lambda, PriceUSDPerKWh: price,
		OnsiteKW: onsite, OffsiteKWh: offsite,
		Speed: cfg.Speed, Active: cfg.Active,
	}
	if cfg.Active > 0 && cfg.Speed > 0 {
		g := dcmodel.Group{Type: sc.Server, N: cfg.Active}
		rec.PowerKW = sc.PUE * g.PowerKW(cfg.Speed, lambda)
		rec.DelayCost = g.DelayCost(cfg.Speed, lambda)
	}
	rec.GridKWh = math.Max(0, rec.PowerKW-onsite)
	rec.ElectricityUSD = price * rec.GridKWh
	rec.DelayUSD = sc.Beta * rec.DelayCost
	rec.SwitchUSD = price * sc.SwitchCostKWh * math.Abs(float64(cfg.Active-prevActive))
	rec.TotalUSD = rec.ElectricityUSD + rec.DelayUSD + rec.SwitchUSD
	rec.DeficitKWh = rec.GridKWh - sc.Portfolio.Alpha*offsite - zPerSlot
	// The Ledger's one visible addition: explicit slot energy (1-hour
	// slots in the seed, so energy equals power numerically).
	rec.EnergyKWh = rec.PowerKW
	return rec
}

func paritySc(t *testing.T) *sim.Scenario {
	t.Helper()
	sc, _, err := simtest.Build(simtest.Options{Slots: 7 * 24, N: 500})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// compareRuns asserts bit-for-bit equality of every SlotRecord field.
func compareRuns(t *testing.T, name string, got, want *sim.Result) {
	t.Helper()
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: %d records, golden %d", name, len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("%s: slot %d diverges:\nengine %+v\ngolden %+v",
				name, i, got.Records[i], want.Records[i])
		}
	}
}

// policies builds a fresh instance of each policy family for the scenario;
// fresh per run because policies carry state (deficit queues, warm starts).
func parityPolicies(t *testing.T, sc *sim.Scenario) map[string]func() sim.Policy {
	t.Helper()
	return map[string]func() sim.Policy{
		"coca": func() sim.Policy {
			p, err := core.New(core.FromScenario(sc, lyapunov.ConstantV(5e5, 1, sc.Slots)))
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"unaware": func() sim.Policy { return baseline.NewUnaware(sc) },
		"opt": func() sim.Policy {
			o, err := baseline.NewOPT(sc)
			if err != nil {
				t.Fatal(err)
			}
			return o
		},
		"perfect-hp": func() sim.Policy {
			p, err := baseline.NewPerfectHP(sc, 48)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
}

func TestEngineMatchesGoldenRun(t *testing.T) {
	sc := paritySc(t)
	for name, mk := range parityPolicies(t, sc) {
		t.Run(name, func(t *testing.T) {
			want, err := goldenRun(sc, mk())
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(sc, mk())
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, name, got, want)
		})
	}
}

// TestEngineGoldenHash pins the engine's slot arithmetic absolutely: the
// unaware policy over four weeks of the 2,000-server scenario, with every
// charged number of every SlotRecord folded into FNV-1a as little-endian
// IEEE-754 bits. The parity tests compare the engine with a reference loop;
// this digest also catches a drift the two would share.
func TestEngineGoldenHash(t *testing.T) {
	const want = "fnv1a:84e3cd10ada72be5"
	sc, _, err := simtest.Build(simtest.Options{Slots: 28 * 24, N: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sc, baseline.NewUnaware(sc))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range res.Records {
		for _, v := range []float64{float64(r.Slot), float64(r.Speed), float64(r.Active),
			r.LambdaRPS, r.TotalUSD, r.ElectricityUSD, r.DelayUSD, r.SwitchUSD,
			r.GridKWh, r.EnergyKWh, r.DeficitKWh} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if got := fmt.Sprintf("fnv1a:%016x", h.Sum64()); got != want {
		t.Errorf("engine result hash = %s, want %s (slot arithmetic drifted)", got, want)
	}
}

// TestEngineMatchesGoldenRunVariants exercises the Ledger's optional knobs
// — switching cost and workload overestimation — against the seed
// arithmetic.
func TestEngineMatchesGoldenRunVariants(t *testing.T) {
	base := paritySc(t)
	variants := map[string]func(*sim.Scenario){
		"switching":    func(sc *sim.Scenario) { sc.SwitchCostKWh = 0.231 },
		"overestimate": func(sc *sim.Scenario) { sc.Overestimate = 1.1 },
	}
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) {
			sc := base.Clone()
			mutate(sc)
			mkCoca := func() sim.Policy {
				p, err := core.New(core.FromScenario(sc, lyapunov.ConstantV(5e5, 1, sc.Slots)))
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			want, err := goldenRun(sc, mkCoca())
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(sc, mkCoca())
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, name, got, want)
		})
	}
}

// TestEngineStepwiseMatchesRun drives the Engine manually — Step until
// Done, observers on — and requires the exact records Run produces, plus
// in-order observer delivery.
func TestEngineStepwiseMatchesRun(t *testing.T) {
	sc := paritySc(t)
	mk := func() sim.Policy { return baseline.NewUnaware(sc) }

	want, err := sim.Run(sc, mk())
	if err != nil {
		t.Fatal(err)
	}
	var observed []sim.SlotRecord
	e, err := sim.NewEngine(sc, mk(), func(rec sim.SlotRecord) {
		observed = append(observed, rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !e.Done() {
		if got := e.Slot(); got != steps {
			t.Fatalf("Slot() = %d before step %d", got, steps)
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	if err := e.Step(); err != sim.ErrDone {
		t.Fatalf("Step after Done = %v, want ErrDone", err)
	}
	got := e.Result()
	compareRuns(t, "stepwise", got, want)
	if len(observed) != len(want.Records) {
		t.Fatalf("observer saw %d records, want %d", len(observed), len(want.Records))
	}
	for i := range observed {
		if observed[i] != want.Records[i] {
			t.Fatalf("observer record %d diverges", i)
		}
	}
}

// TestSlotHoursScalesEnergy pins the satellite: a half-hour slot halves
// grid and facility energy (and with them electricity cost) relative to
// the 1-hour default, visibly through the Ledger rather than an implicit
// kW≡kWh assumption.
func TestSlotHoursScalesEnergy(t *testing.T) {
	sc := paritySc(t)
	ref, err := sim.Run(sc, baseline.NewUnaware(sc))
	if err != nil {
		t.Fatal(err)
	}
	half := sc.Clone()
	half.SlotHours = 0.5
	got, err := sim.Run(half, baseline.NewUnaware(half))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Records {
		r, g := ref.Records[i], got.Records[i]
		if g.EnergyKWh != r.PowerKW*0.5 {
			t.Fatalf("slot %d: EnergyKWh = %v, want %v", i, g.EnergyKWh, r.PowerKW*0.5)
		}
		if want := math.Max(0, r.PowerKW-r.OnsiteKW) * 0.5; g.GridKWh != want {
			t.Fatalf("slot %d: GridKWh = %v, want %v", i, g.GridKWh, want)
		}
	}
	refSum := sim.Summarize(sc, ref)
	gotSum := sim.Summarize(half, got)
	if refSum.SlotHours != 1 || gotSum.SlotHours != 0.5 {
		t.Fatalf("Summary.SlotHours = %v / %v, want 1 / 0.5", refSum.SlotHours, gotSum.SlotHours)
	}
}
