package geo

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

func readSpans(t *testing.T, tr *span.Tracer) []span.Record {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var recs []span.Record
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var r span.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestStepTracedSpans pins the federation span topology: one geo.step
// root per stepped slot with a geo.site child per site carrying the split
// decision and the realized site charge.
func TestStepTracedSpans(t *testing.T) {
	slots := 24
	sys, err := NewSystem(makeSites(slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	tr := span.NewTracer()
	sys.SetTracer(tr)

	out, err := sys.Step(600, 100)
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(out)
	out2, err := sys.Step(400, 100)
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(out2)

	recs := readSpans(t, tr)
	var steps, sites []span.Record
	for _, r := range recs {
		switch r.Name {
		case "geo.step":
			steps = append(steps, r)
		case "geo.site":
			sites = append(sites, r)
		}
	}
	if len(steps) != 2 {
		t.Fatalf("%d geo.step spans, want 2", len(steps))
	}
	stepIDs := make(map[uint64]int)
	for i, st := range steps {
		if st.Parent != 0 {
			t.Fatalf("geo.step %d has parent %d, want root", i, st.Parent)
		}
		if got := st.Attrs["slot"]; got != float64(i) {
			t.Fatalf("geo.step %d slot attr = %v", i, got)
		}
		// The split hot path annotates its solve accounting.
		if got, ok := st.Attrs["p3_solves"].(float64); !ok || got <= 0 {
			t.Fatalf("geo.step %d p3_solves attr = %v, want > 0", i, st.Attrs["p3_solves"])
		}
		if got, ok := st.Attrs["memo_hits"].(float64); !ok || got <= 0 {
			t.Fatalf("geo.step %d memo_hits attr = %v, want > 0", i, st.Attrs["memo_hits"])
		}
		stepIDs[st.ID] = i
	}
	if want := 2 * len(sys.Sites); len(sites) != want {
		t.Fatalf("%d geo.site spans, want one per site per slot (%d)", len(sites), want)
	}
	// Each step must show per-site children whose loads sum to the slot's
	// demand and whose names cover the federation.
	loadByStep := map[int]float64{}
	namesByStep := map[int]map[string]bool{0: {}, 1: {}}
	for i, site := range sites {
		stepIdx, ok := stepIDs[site.Parent]
		if !ok {
			t.Fatalf("geo.site %d parented to %d, not a geo.step", i, site.Parent)
		}
		name, ok := site.Attrs["site"].(string)
		if !ok {
			t.Fatalf("geo.site %d missing site attr: %v", i, site.Attrs)
		}
		namesByStep[stepIdx][name] = true
		load, ok := site.Attrs["load_rps"].(float64)
		if !ok {
			t.Fatalf("geo.site %d missing load_rps: %v", i, site.Attrs)
		}
		loadByStep[stepIdx] += load
		for _, key := range []string{"chunks", "cost_usd", "grid_kwh", "queue_kwh"} {
			if _, ok := site.Attrs[key]; !ok {
				t.Fatalf("geo.site %d missing %s attr: %v", i, key, site.Attrs)
			}
		}
	}
	for stepIdx, want := range map[int]float64{0: 600, 1: 400} {
		if got := loadByStep[stepIdx]; got < want-1e-6 || got > want+1e-6 {
			t.Fatalf("step %d site loads sum to %v, want %v", stepIdx, got, want)
		}
		for _, s := range sys.Sites {
			if !namesByStep[stepIdx][s.Name] {
				t.Fatalf("step %d has no geo.site span for %q", stepIdx, s.Name)
			}
		}
	}
}

// TestStepMetrics pins the GeoMetrics wiring: federation totals and lazy
// per-site instruments land in the registry under the geo.* prefix.
func TestStepMetrics(t *testing.T) {
	slots := 24
	sys, err := NewSystem(makeSites(slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sys.Instrument(telemetry.NewGeoMetrics(reg, "geo"))

	out, err := sys.Step(600, 100)
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(out)

	snap := reg.Snapshot()
	if got := snap.Counters["geo.steps"]; got != 1 {
		t.Fatalf("geo.steps = %v, want 1", got)
	}
	if got := snap.Counters["geo.p3_solves"]; got <= 0 {
		t.Fatalf("geo.p3_solves = %v, want > 0", got)
	}
	if got := snap.Counters["geo.memo_hits"]; got <= 0 {
		t.Fatalf("geo.memo_hits = %v, want > 0", got)
	}
	if got := snap.Counters["geo.solve_errors"]; got != 0 {
		t.Fatalf("geo.solve_errors = %v on a healthy step", got)
	}
	if got := snap.Counters["geo.total_usd"]; got != out.TotalCostUSD {
		t.Fatalf("geo.total_usd = %v, want %v", got, out.TotalCostUSD)
	}
	if got := snap.Counters["geo.grid_kwh"]; got != out.TotalGridKWh {
		t.Fatalf("geo.grid_kwh = %v, want %v", got, out.TotalGridKWh)
	}
	var loadSum float64
	for i, s := range sys.Sites {
		load, ok := snap.LabeledCounters["geo.site.load_rps"].Get(s.Name)
		if !ok || load != out.Sites[i].LoadRPS {
			t.Fatalf("geo.site.load_rps{site=%q} = %v (ok=%v), want %v",
				s.Name, load, ok, out.Sites[i].LoadRPS)
		}
		loadSum += load
		cost, ok := snap.LabeledCounters["geo.site.cost_usd"].Get(s.Name)
		if !ok || cost != out.Sites[i].CostUSD {
			t.Fatalf("geo.site.cost_usd{site=%q} = %v (ok=%v), want %v",
				s.Name, cost, ok, out.Sites[i].CostUSD)
		}
		if _, ok := snap.LabeledGauges["geo.site.deficit_kwh"].Get(s.Name); !ok {
			t.Fatalf("geo.site.deficit_kwh{site=%q} not set after Settle", s.Name)
		}
	}
	if loadSum < 600-1e-6 || loadSum > 600+1e-6 {
		t.Fatalf("per-site load counters sum to %v, want 600", loadSum)
	}
}

// TestStepTracedMatchesUntraced pins that observability is free: a traced
// and instrumented federation steps to the same outcome as a bare one.
func TestStepTracedMatchesUntraced(t *testing.T) {
	slots := 24
	plainSys, err := NewSystem(makeSites(slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	tracedSys, err := NewSystem(makeSites(slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	tracedSys.SetTracer(span.NewTracer())
	tracedSys.Instrument(telemetry.NewGeoMetrics(telemetry.NewRegistry(), "geo"))

	for slot := 0; slot < 3; slot++ {
		lambda := 500 + 50*float64(slot)
		want, err := plainSys.Step(lambda, 100)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tracedSys.Step(lambda, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Sites) != len(want.Sites) ||
			got.TotalCostUSD != want.TotalCostUSD || got.TotalGridKWh != want.TotalGridKWh {
			t.Fatalf("slot %d totals diverged: %+v vs %+v", slot, got, want)
		}
		for i := range want.Sites {
			if got.Sites[i] != want.Sites[i] {
				t.Fatalf("slot %d site %d diverged: %+v vs %+v", slot, i, got.Sites[i], want.Sites[i])
			}
		}
		plainSys.Settle(want)
		tracedSys.Settle(got)
	}
}
