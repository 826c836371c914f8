package reqsim

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/geo"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

func slotRecord(slot int, lambda float64, speed, active int) sim.SlotRecord {
	return sim.SlotRecord{Slot: slot, LambdaRPS: lambda, Speed: speed, Active: active}
}

// TestSlotReplayerValidatesAnalyticModel replays synthetic slot records at
// moderate load and checks the empirical queue agrees with the analytic
// model the controllers optimize: the whole point of wiring reqsim into
// the slot pipeline.
func TestSlotReplayerValidatesAnalyticModel(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := telemetry.NewReqsimMetrics(reg, "reqsim")
	tr := span.NewTracer()
	server := dcmodel.Opteron()
	r := NewSlotReplayer(server, ReplayOptions{
		Requests: 150_000,
		Seed:     7,
		Metrics:  m,
		Tracer:   tr,
		Site:     "dc-test",
	})
	ob := r.Observer()
	// Three slots at ρ ≈ {0.4, 0.6, 0.8} per server at full speed (x = 10).
	ob(slotRecord(0, 40, 4, 10))
	ob(slotRecord(1, 60, 4, 10))
	ob(slotRecord(2, 80, 4, 10))
	rep := r.Report()
	if rep.Slots != 3 {
		t.Fatalf("replayed %d slots, want 3", rep.Slots)
	}
	if rep.Requests < 300_000 {
		t.Errorf("simulated %d requests; want ≈ 3×150k", rep.Requests)
	}
	if rep.MeanAbsRelErr > 0.05 {
		t.Errorf("Poisson replay mean model error %.4f; Eq. (4) should hold within 5%%", rep.MeanAbsRelErr)
	}
	// Metrics landed under the site label.
	snap := reg.Snapshot()
	if v, ok := sample(snap.LabeledCounters["reqsim.site.requests"], "dc-test"); !ok || v <= 0 {
		t.Errorf("site-labeled request counter missing or zero: %v (ok=%v)", v, ok)
	}
	if v, ok := sample(snap.LabeledGauges["reqsim.site.p99_sec"], "dc-test"); !ok || v <= 0 {
		t.Errorf("site-labeled P99 gauge missing or zero: %v (ok=%v)", v, ok)
	}
	if snap.Counters["reqsim.replays"] != 3 {
		t.Errorf("replay counter %v, want 3", snap.Counters["reqsim.replays"])
	}
	// Spans recorded.
	found := false
	for _, row := range tr.Summarize().ByName {
		if row.Name == "reqsim.replay" && row.Count == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected 3 reqsim.replay spans, got %+v", tr.Summarize().ByName)
	}
}

// TestSlotReplayerBurstyArmDiverges pins the knowably-wrong arm: identical
// slot records replayed with bursty arrivals must show a much larger
// model error than the Poisson replay.
func TestSlotReplayerBurstyArmDiverges(t *testing.T) {
	server := dcmodel.Opteron()
	poisson := NewSlotReplayer(server, ReplayOptions{Requests: 120_000, Seed: 3})
	bursty := NewSlotReplayer(server, ReplayOptions{Requests: 120_000, Seed: 3, Bursty: true})
	rec := slotRecord(0, 70, 4, 10) // ρ = 0.7 per server
	poisson.Observer()(rec)
	bursty.Observer()(rec)
	p, b := poisson.Report(), bursty.Report()
	if b.MeanAbsRelErr < 4*p.MeanAbsRelErr {
		t.Errorf("bursty model error %.4f should dwarf Poisson error %.4f", b.MeanAbsRelErr, p.MeanAbsRelErr)
	}
	if b.MeanAbsRelErr < 0.2 {
		t.Errorf("bursty model error %.4f too small — the divergence is the point", b.MeanAbsRelErr)
	}
}

// TestSlotReplayerSkipsAndSampling: Every=n replays every nth slot; empty
// and overloaded records are skipped.
func TestSlotReplayerSkipsAndSampling(t *testing.T) {
	server := dcmodel.Opteron()
	r := NewSlotReplayer(server, ReplayOptions{Requests: 20_000, Seed: 1, Every: 2})
	ob := r.Observer()
	ob(slotRecord(0, 40, 4, 10)) // replayed
	ob(slotRecord(1, 40, 4, 10)) // skipped: odd slot
	ob(slotRecord(2, 0, 4, 10))  // skipped: no load
	ob(slotRecord(3, 40, 4, 10)) // skipped: odd slot
	ob(slotRecord(4, 40, 0, 0))  // skipped: fleet off
	if rep := r.Report(); rep.Slots != 1 {
		t.Errorf("replayed %d slots, want 1", rep.Slots)
	}
}

// TestSlotReplayerWorkerInvariance: the replayer is deterministic in its
// Workers option — same records, same bits in the report.
func TestSlotReplayerWorkerInvariance(t *testing.T) {
	server := dcmodel.Opteron()
	recs := []sim.SlotRecord{
		slotRecord(0, 40, 4, 12),
		slotRecord(1, 65, 3, 16),
		slotRecord(2, 55, 4, 8),
	}
	run := func(workers int) ReplayReport {
		r := NewSlotReplayer(server, ReplayOptions{Requests: 60_000, Seed: 11, Workers: workers})
		for _, rec := range recs {
			r.Observer()(rec)
		}
		return r.Report()
	}
	ref := run(1)
	for _, w := range []int{4, 32} {
		if got := run(w); got != ref {
			t.Errorf("workers=%d report diverged:\ngot %+v\nref %+v", w, got, ref)
		}
	}
}

// TestFleetReplayerMatchesChargedDelay drives the fleet-side hook with a
// synthetic settled outcome: by construction of the equivalent server
// (x_eq = λ + λ/d) the analytic prediction of each replayed site queue is
// the site's charged delay cost, so the model error must be small and the
// site-labeled series populated.
func TestFleetReplayerMatchesChargedDelay(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := telemetry.NewReqsimMetrics(reg, "reqsim")
	r := NewFleetReplayer([]string{"east", "west"}, ReplayOptions{
		Requests: 200_000,
		Seed:     5,
		Metrics:  m,
	})
	out := geo.StepOutcome{Sites: []geo.SiteOutcome{
		{LoadRPS: 120, DelayCost: 30}, // x_eq = 124 → ρ ≈ 0.968… heavy but stable
		{LoadRPS: 80, DelayCost: 4},   // x_eq = 100 → ρ = 0.8
	}}
	r.Observer()(0, out)
	rep := r.Report()
	if rep.Slots != 2 {
		t.Fatalf("replayed %d site queues, want 2", rep.Slots)
	}
	if rep.MeanAbsRelErr > 0.20 {
		t.Errorf("fleet replay mean model error %.4f; equivalent-server queues should track charged delay", rep.MeanAbsRelErr)
	}
	snap := reg.Snapshot()
	for _, site := range []string{"east", "west"} {
		if v, ok := sample(snap.LabeledGauges["reqsim.site.queue_len"], site); !ok || v <= 0 {
			t.Errorf("site %s queue gauge missing or zero: %v (ok=%v)", site, v, ok)
		}
	}
}

// TestFleetReplayerWorkerInvariance: same settled outcomes, any worker
// count, identical report bits.
func TestFleetReplayerWorkerInvariance(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e"}
	out := geo.StepOutcome{Sites: []geo.SiteOutcome{
		{LoadRPS: 50, DelayCost: 5},
		{LoadRPS: 30, DelayCost: 2},
		{}, // idle site: skipped
		{LoadRPS: 70, DelayCost: 9},
		{LoadRPS: 10, DelayCost: 0.5},
	}}
	run := func(workers int) ReplayReport {
		r := NewFleetReplayer(names, ReplayOptions{Requests: 80_000, Seed: 9, Workers: workers})
		r.Observer()(0, out)
		r.Observer()(1, out)
		return r.Report()
	}
	ref := run(1)
	for _, w := range []int{3, 16} {
		if got := run(w); got != ref {
			t.Errorf("workers=%d report diverged:\ngot %+v\nref %+v", w, got, ref)
		}
	}
}

// TestReplayReportString renders for run summaries.
func TestReplayReportString(t *testing.T) {
	r := ReplayReport{Slots: 2, Requests: 100, Events: 200, MeanAbsRelErr: 0.0123, MaxAbsRelErr: 0.02}
	s := r.String()
	for _, want := range []string{"slots=2", "requests=100", "model_err"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

// fixedPolicy keeps the whole fleet on at one speed — the simplest legal
// sim.Policy for integration tests.
type fixedPolicy struct{ speed, active int }

func (fixedPolicy) Name() string { return "fixed" }
func (p fixedPolicy) Decide(sim.Observation) (sim.Config, error) {
	return sim.Config{Speed: p.speed, Active: p.active}, nil
}
func (fixedPolicy) Observe(sim.Feedback) {}

// TestSlotReplayerEndToEnd wires a replayer into a real sim.Engine run —
// the actual integration path — and checks replays happened for every
// operated slot with sane percentiles.
func TestSlotReplayerEndToEnd(t *testing.T) {
	sc, _, err := simtest.Build(simtest.Options{Slots: 2 * 24, N: 60, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	r := NewSlotReplayer(sc.Server, ReplayOptions{Requests: 30_000, Seed: 2})
	res, err := sim.RunObserved(sc, fixedPolicy{speed: sc.Server.NumSpeeds(), active: sc.N}, r.Observer())
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	if rep.Slots != len(res.Records) {
		t.Errorf("replayed %d slots of %d operated", rep.Slots, len(res.Records))
	}
	if rep.MeanAbsRelErr > 0.10 {
		t.Errorf("end-to-end model error %.4f too large", rep.MeanAbsRelErr)
	}
	if math.IsNaN(rep.MeanAbsRelErr) {
		t.Error("NaN model error")
	}
}

// sample returns the snapshot's value for the label tuple, if present.
func sample(s telemetry.LabeledSnapshot, values ...string) (float64, bool) {
	for _, ser := range s.Series {
		if slices.Equal(ser.Values, values) {
			return ser.Value, true
		}
	}
	return 0, false
}
