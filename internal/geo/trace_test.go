package geo

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"repro/internal/gsd"
	"repro/internal/telemetry"
	"repro/internal/telemetry/promtext"
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

// TestStepMetrics pins System's metrics wiring: federation totals and
// site-labeled series land in the registry under the geo.* prefix.
func TestStepMetrics(t *testing.T) {
	slots := 24
	sys, err := NewSystem(makeSites(slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sys.Instrument(telemetry.NewFleetMetrics(reg, "geo"))

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
		load, ok := sample(snap.LabeledCounters["geo.site.load_rps"], s.Name)
		if !ok || load != out.Sites[i].LoadRPS {
			t.Fatalf("geo.site.load_rps{site=%q} = %v (ok=%v), want %v",
				s.Name, load, ok, out.Sites[i].LoadRPS)
		}
		loadSum += load
		cost, ok := sample(snap.LabeledCounters["geo.site.cost_usd"], s.Name)
		if !ok || cost != out.Sites[i].CostUSD {
			t.Fatalf("geo.site.cost_usd{site=%q} = %v (ok=%v), want %v",
				s.Name, cost, ok, out.Sites[i].CostUSD)
		}
		if _, ok := sample(snap.LabeledGauges["geo.site.deficit_kwh"], s.Name); !ok {
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
	tracedSys.Instrument(telemetry.NewFleetMetrics(telemetry.NewRegistry(), "geo"))

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

// TestExportedMetricFamilies pins the /metrics surface of both engines:
// the exact family and label list a System instrumented under "geo" and a
// Fleet under "fleet" export, and that every site-labeled family carries
// one series per site — no engine exports a per-site series it never
// feeds. Tests, the bench and the README read these names.
func TestExportedMetricFamilies(t *testing.T) {
	const slots = 4
	sys, err := NewSystem(makeSitesK(3, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	sysReg := telemetry.NewRegistry()
	sys.Instrument(telemetry.NewFleetMetrics(sysReg, "geo"))
	out, err := sys.Step(0.4*sys.TotalCapacityRPS(), 120)
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(out)

	fleet, err := NewFleet(makeFleetSites(3, 3, 5, slots), 0.005, slots, gsd.Options{Delta: 1e4, MaxIters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fleetReg := telemetry.NewRegistry()
	fleet.Instrument(telemetry.NewFleetMetrics(fleetReg, "fleet"))
	fout, err := fleet.Step(0.4*fleet.TotalCapacityRPS(), 5e5)
	if err != nil {
		t.Fatal(err)
	}
	fleet.Settle(fout)

	shared := func(p string) []string {
		return []string{
			p + "_grid_kwh", p + "_solve_errors", p + "_steps", p + "_total_usd",
			p + "_site_cost_usd{site}", p + "_site_grid_kwh{site}", p + "_site_load_rps{site}",
			p + "_site_deficit_kwh{site}",
			p + "_step_seconds{le}", p + "_step_seconds_invalid",
		}
	}
	for _, tc := range []struct {
		engine string
		reg    *telemetry.Registry
		sites  []string
		want   []string
	}{
		{"System", sysReg, []string{"s00", "s01", "s02"}, append(shared("geo"),
			"geo_memo_hits", "geo_p3_solves", "geo_site_chunks{site}")},
		{"Fleet", fleetReg, []string{"f000", "f001", "f002"}, append(shared("fleet"),
			"fleet_shard_accepted_moves{site}", "fleet_shard_cold_fallbacks{site}",
			"fleet_shard_dual_rounds{site}", "fleet_shard_iterations{site}",
			"fleet_shard_patience_exits{site}", "fleet_shard_solves{site}",
			"fleet_shard_iterations_per_solve{le,site}", "fleet_shard_iterations_per_solve_invalid{site}",
			"fleet_shard_solve_seconds{le,site}", "fleet_shard_solve_seconds_invalid{site}")},
	} {
		var buf bytes.Buffer
		if err := tc.reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := promtext.Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, fam := range fams {
			labels := map[string]bool{}
			sites := map[string]bool{}
			for _, s := range fam.Samples {
				for _, l := range s.Labels {
					labels[l.Name] = true
					if l.Name == "site" {
						sites[l.Value] = true
					}
				}
			}
			if labels["site"] && len(sites) != len(tc.sites) {
				t.Errorf("%s: %s has series for %d sites, want %d", tc.engine, fam.Name, len(sites), len(tc.sites))
			}
			names := make([]string, 0, len(labels))
			for l := range labels {
				names = append(names, l)
			}
			sort.Strings(names)
			sig := fam.Name
			if len(names) > 0 {
				sig += "{" + strings.Join(names, ",") + "}"
			}
			got = append(got, sig)
		}
		sort.Strings(got)
		sort.Strings(tc.want)
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s exports families\n%s\nwant\n%s", tc.engine, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}
