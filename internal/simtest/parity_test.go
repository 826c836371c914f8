package simtest_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dcmodel"
	"repro/internal/lyapunov"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/telemetry/span"
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

// cocaPolicy builds the stateful COCA policy used by the resume tests.
func cocaPolicy(t *testing.T, sc *sim.Scenario) *core.Policy {
	t.Helper()
	p, err := core.New(core.FromScenario(sc, lyapunov.ConstantV(5e5, 1, sc.Slots)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// spanSignature reduces a tracer's buffer to the (name, attrs) sequence in
// start order — everything deterministic about the recorded spans.
func spanSignature(t *testing.T, tr *span.Tracer) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	dec := json.NewDecoder(&buf)
	for {
		var rec span.Record
		if err := dec.Decode(&rec); err != nil {
			break
		}
		keys := make([]string, 0, len(rec.Attrs))
		for k := range rec.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		line := rec.Name
		for _, k := range keys {
			line += fmt.Sprintf(" %s=%v", k, rec.Attrs[k])
		}
		out = append(out, line)
	}
	return out
}

// TestEngineResumeMatchesUninterrupted pins the tentpole's sim-layer
// semantics: Step after RestoreFrom (engine + policy checkpoints, through
// JSON) must produce the same records, the same observer sequence and the
// same span sequence as the uninterrupted run's second half.
func TestEngineResumeMatchesUninterrupted(t *testing.T) {
	sc := paritySc(t)
	half := sc.Slots / 2

	// Uninterrupted reference: trace only the second half, so the span
	// signature is directly comparable with the resumed run's.
	refEngine, err := sim.NewEngine(sc, cocaPolicy(t, sc))
	if err != nil {
		t.Fatal(err)
	}
	for refEngine.Slot() < half {
		if err := refEngine.Step(); err != nil {
			t.Fatal(err)
		}
	}
	refTracer := span.NewTracer()
	refEngine.SetTracer(refTracer)
	for !refEngine.Done() {
		if err := refEngine.Step(); err != nil {
			t.Fatal(err)
		}
	}
	want := refEngine.Result()

	// Interrupted run: stop at half, checkpoint engine and policy through
	// JSON, rebuild both from scratch, restore, finish.
	firstPolicy := cocaPolicy(t, sc)
	firstEngine, err := sim.NewEngine(sc, firstPolicy)
	if err != nil {
		t.Fatal(err)
	}
	for firstEngine.Slot() < half {
		if err := firstEngine.Step(); err != nil {
			t.Fatal(err)
		}
	}
	engBlob, err := json.Marshal(firstEngine.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	polBlob, err := json.Marshal(firstPolicy.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}

	var engCk sim.EngineCheckpoint
	if err := json.Unmarshal(engBlob, &engCk); err != nil {
		t.Fatal(err)
	}
	var polCk core.PolicyCheckpoint
	if err := json.Unmarshal(polBlob, &polCk); err != nil {
		t.Fatal(err)
	}
	resumedPolicy := cocaPolicy(t, sc)
	if err := resumedPolicy.RestoreFrom(polCk); err != nil {
		t.Fatal(err)
	}
	var observed []sim.SlotRecord
	resumedEngine, err := sim.NewEngine(sc, resumedPolicy, func(rec sim.SlotRecord) {
		observed = append(observed, rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := resumedEngine.RestoreFrom(engCk); err != nil {
		t.Fatal(err)
	}
	if resumedEngine.Slot() != half {
		t.Fatalf("restored slot cursor %d, want %d", resumedEngine.Slot(), half)
	}
	resumedTracer := span.NewTracer()
	resumedEngine.SetTracer(resumedTracer)
	for !resumedEngine.Done() {
		if err := resumedEngine.Step(); err != nil {
			t.Fatal(err)
		}
	}

	compareRuns(t, "resume", resumedEngine.Result(), want)
	// Observers attached to the resumed engine see exactly the slots it
	// operated — the uninterrupted run's second half.
	if len(observed) != sc.Slots-half {
		t.Fatalf("observer saw %d records, want %d", len(observed), sc.Slots-half)
	}
	for i, rec := range observed {
		if rec != want.Records[half+i] {
			t.Fatalf("observer record %d diverges from uninterrupted slot %d", i, half+i)
		}
	}
	gotSpans, wantSpans := spanSignature(t, resumedTracer), spanSignature(t, refTracer)
	if len(gotSpans) != len(wantSpans) {
		t.Fatalf("resumed run recorded %d spans, uninterrupted second half %d", len(gotSpans), len(wantSpans))
	}
	for i := range wantSpans {
		if gotSpans[i] != wantSpans[i] {
			t.Fatalf("span %d diverges:\nresumed       %s\nuninterrupted %s", i, gotSpans[i], wantSpans[i])
		}
	}
}

// TestEngineRestoreRejectsInvalid covers the engine checkpoint guards.
func TestEngineRestoreRejectsInvalid(t *testing.T) {
	sc := paritySc(t)
	e, err := sim.NewEngine(sc, baseline.NewUnaware(sc))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	valid := e.Checkpoint()
	cases := map[string]func(*sim.EngineCheckpoint){
		"version":      func(ck *sim.EngineCheckpoint) { ck.Version = 9 },
		"policy":       func(ck *sim.EngineCheckpoint) { ck.Policy = "other" },
		"slot-high":    func(ck *sim.EngineCheckpoint) { ck.Slot = sc.Slots + 1; ck.Records = nil },
		"record-count": func(ck *sim.EngineCheckpoint) { ck.Records = ck.Records[:1] },
		"prev-active":  func(ck *sim.EngineCheckpoint) { ck.PrevActive = sc.N + 1 },
	}
	for name, mutate := range cases {
		ck := valid
		ck.Records = append([]sim.SlotRecord(nil), valid.Records...)
		mutate(&ck)
		fresh, err := sim.NewEngine(sc, baseline.NewUnaware(sc))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreFrom(ck); err == nil {
			t.Errorf("%s: RestoreFrom accepted an invalid checkpoint", name)
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
