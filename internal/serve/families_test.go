package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/telemetry/promtext"
)

// TestExportedMetricFamilies pins the /metrics surface of every instrument
// set: the exact family names, types and label keys each one exports,
// parsed back from the exposition, plus every Snapshot entry the bench
// module reads. (The geo engines' site-by-site coverage is pinned by
// package geo's test of the same name.) Tests, the bench and the README
// read these names, so a rename or a kind change must show up here.
func TestExportedMetricFamilies(t *testing.T) {
	for _, tc := range []struct {
		set   string
		build func(t *testing.T, r *telemetry.Registry)
		want  []string // "type name{label,…}", sorted within the braces
		reads []string // "<Snapshot field>:<instrument name>"
	}{
		{"RunMetrics", func(_ *testing.T, r *telemetry.Registry) {
			telemetry.NewRunMetrics(r, "run").Observe(sim.SlotRecord{TotalUSD: 3, GridKWh: 2})
		}, []string{
			"counter run_deficit_kwh", "counter run_delay_usd", "counter run_electricity_usd",
			"counter run_energy_kwh", "counter run_grid_kwh", "counter run_slots",
			"counter run_switch_usd", "counter run_total_usd",
			"gauge run_last_active", "gauge run_last_slot", "gauge run_last_speed", "gauge run_queue_kwh",
			"histogram run_slot_cost_usd{le}", "counter run_slot_cost_usd_invalid",
			"histogram run_slot_grid_kwh{le}", "counter run_slot_grid_kwh_invalid",
		}, nil},
		{"SolveMetrics", func(_ *testing.T, r *telemetry.Registry) {
			m := telemetry.NewSolveMetrics(r, "gsd")
			m.Solves.Inc()
			m.SolveSeconds.Observe(1e-3)
		}, []string{
			"counter gsd_accepted_moves", "counter gsd_cold_fallbacks", "counter gsd_dual_rounds",
			"counter gsd_iterations", "counter gsd_patience_exits", "counter gsd_solves",
			"histogram gsd_iterations_per_solve{le}", "counter gsd_iterations_per_solve_invalid",
			"histogram gsd_solve_seconds{le}", "counter gsd_solve_seconds_invalid",
		}, []string{
			"counters:gsd.solves", "counters:gsd.iterations", "counters:gsd.accepted_moves",
			"counters:gsd.cold_fallbacks", "histograms:gsd.solve_seconds",
		}},
		{"FleetMetrics(geo)", func(_ *testing.T, r *telemetry.Registry) {
			m := telemetry.NewFleetMetrics(r, "geo")
			m.Site("s0")
			m.ObserveStep(1, 2, 1e-3)
			_, _, chunks := m.Split()
			chunks.With("s0").Inc()
		}, []string{
			"counter geo_grid_kwh", "counter geo_memo_hits", "counter geo_p3_solves",
			"counter geo_solve_errors", "counter geo_steps", "counter geo_total_usd",
			"counter geo_site_chunks{site}", "counter geo_site_cost_usd{site}",
			"counter geo_site_grid_kwh{site}", "counter geo_site_load_rps{site}",
			"gauge geo_site_deficit_kwh{site}",
			"histogram geo_step_seconds{le}", "counter geo_step_seconds_invalid",
		}, []string{"counters:geo.steps", "counters:geo.p3_solves", "counters:geo.memo_hits"}},
		{"FleetMetrics(fleet).SiteSolveMetrics", func(_ *testing.T, r *telemetry.Registry) {
			m := telemetry.NewFleetMetrics(r, "fleet").SiteSolveMetrics("f0")
			m.Solves.Inc()
			m.SolveSeconds.Observe(1e-3)
		}, []string{
			"counter fleet_grid_kwh", "counter fleet_solve_errors", "counter fleet_steps", "counter fleet_total_usd",
			"counter fleet_site_cost_usd", "counter fleet_site_grid_kwh", "counter fleet_site_load_rps",
			"gauge fleet_site_deficit_kwh",
			"histogram fleet_step_seconds{le}", "counter fleet_step_seconds_invalid",
			"counter fleet_shard_accepted_moves{site}", "counter fleet_shard_cold_fallbacks{site}",
			"counter fleet_shard_dual_rounds{site}", "counter fleet_shard_iterations{site}",
			"counter fleet_shard_patience_exits{site}", "counter fleet_shard_solves{site}",
			"histogram fleet_shard_iterations_per_solve{le,site}", "counter fleet_shard_iterations_per_solve_invalid{site}",
			"histogram fleet_shard_solve_seconds{le,site}", "counter fleet_shard_solve_seconds_invalid{site}",
		}, []string{
			"labeled_counters:fleet.shard.solves", "labeled_counters:fleet.shard.iterations",
			"labeled_counters:fleet.shard.accepted_moves", "labeled_counters:fleet.shard.cold_fallbacks",
			"labeled_histograms:fleet.shard.solve_seconds",
		}},
		{"PoolMetrics", func(_ *testing.T, r *telemetry.Registry) {
			m := telemetry.NewPoolMetrics(r, "pool")
			m.SetWorkers(2)
			m.StartJob()
			m.EndJob(false, 1e-3)
		}, []string{
			"counter pool_job_errors", "counter pool_jobs_done", "counter pool_jobs_started",
			"gauge pool_in_flight", "gauge pool_workers",
			"histogram pool_job_seconds{le}", "counter pool_job_seconds_invalid",
		}, []string{"counters:pool.jobs_done", "histograms:pool.job_seconds"}},
		{"ReqsimMetrics", func(_ *testing.T, r *telemetry.Registry) {
			// No analytic prediction: the site's model-error series still exists.
			telemetry.NewReqsimMetrics(r, "reqsim").ObserveReplay("a", 100, 1, 250, 0.01, 0.02, 0.03, 1.5, -1)
		}, []string{
			"counter reqsim_events", "counter reqsim_model_err_sum", "counter reqsim_replays", "counter reqsim_requests",
			"counter reqsim_site_dropped{site}", "counter reqsim_site_requests{site}",
			"gauge reqsim_site_model_err{site}", "gauge reqsim_site_p50_sec{site}",
			"gauge reqsim_site_p95_sec{site}", "gauge reqsim_site_p99_sec{site}", "gauge reqsim_site_queue_len{site}",
			"histogram reqsim_site_resp_seconds{le,site}", "counter reqsim_site_resp_seconds_invalid{site}",
		}, []string{"counters:reqsim.events"}},
		{"RuntimeMetrics", func(_ *testing.T, r *telemetry.Registry) {
			telemetry.NewRuntimeMetrics(r, "runtime")
		}, []string{
			"gauge runtime_gc_pause_total_seconds", "gauge runtime_gc_runs", "gauge runtime_goroutines",
			"gauge runtime_heap_alloc_bytes", "gauge runtime_heap_objects", "gauge runtime_heap_sys_bytes",
			"gauge runtime_next_gc_bytes", "gauge runtime_stack_sys_bytes",
		}, nil},
		{"serve.NewSiteMetrics+http", func(t *testing.T, r *telemetry.Registry) {
			s := testService(t)
			s.Instrument(NewSiteMetrics(r, "cocad", "bench"))
			srv := httptest.NewServer(s.HandlerWith(r, nil, HandlerOpts{}))
			defer srv.Close()
			body, _ := json.Marshal(testSlots(t, 0, 1)[0])
			resp, err := http.Post(srv.URL+"/decide", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /decide = %d", resp.StatusCode)
			}
		}, []string{
			"counter cocad_rejected{site}", "counter cocad_slots{site}",
			"gauge cocad_grid_kwh{site}", "gauge cocad_queue_kwh{site}",
			"gauge cocad_settle_lag_seconds{site}", "gauge cocad_total_usd{site}",
			"histogram cocad_step_seconds{le,site}", "counter cocad_step_seconds_invalid{site}",
			"counter http_requests{code,path}",
			"histogram http_request_seconds{le,path}", "counter http_request_seconds_invalid{path}",
		}, []string{"labeled_histograms:cocad.step_seconds", "labeled_histograms:http.request_seconds"}},
	} {
		t.Run(tc.set, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tc.build(t, reg)
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			fams, err := promtext.Parse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, 0, len(fams))
			for _, fam := range fams {
				got = append(got, fam.Type+" "+familySignature(fam))
			}
			want := append([]string(nil), tc.want...)
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("exports families\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			snap := reg.Snapshot()
			for _, read := range tc.reads {
				if !inSnapshot(snap, read) {
					t.Errorf("Snapshot lacks %s", read)
				}
			}
		})
	}
}

// familySignature is the family name followed by the sorted label keys its
// samples carry.
func familySignature(fam promtext.Family) string {
	keys := map[string]bool{}
	for _, s := range fam.Samples {
		for _, l := range s.Labels {
			keys[l.Name] = true
		}
	}
	if len(keys) == 0 {
		return fam.Name
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	return fam.Name + "{" + strings.Join(names, ",") + "}"
}

// inSnapshot reports whether the Snapshot field named by read's prefix
// holds read's instrument name.
func inSnapshot(s telemetry.Snapshot, read string) bool {
	field, name, _ := strings.Cut(read, ":")
	var ok bool
	switch field {
	case "counters":
		_, ok = s.Counters[name]
	case "gauges":
		_, ok = s.Gauges[name]
	case "histograms":
		_, ok = s.Histograms[name]
	case "labeled_counters":
		_, ok = s.LabeledCounters[name]
	case "labeled_gauges":
		_, ok = s.LabeledGauges[name]
	case "labeled_histograms":
		_, ok = s.LabeledHistograms[name]
	}
	return ok
}
