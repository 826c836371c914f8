package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/experiments"
	"repro/internal/telemetry/span"
)

func TestFoldSelf(t *testing.T) {
	// Three hand-built trees as tracer NDJSON: nested children, overlapping
	// siblings, and a child that outlives its parent.
	log := `{"id":1,"track":1,"name":"root","start_us":0,"dur_us":100}
{"id":2,"parent":1,"track":1,"name":"child","start_us":10,"dur_us":30}
{"id":3,"parent":2,"track":1,"name":"leaf","start_us":20,"dur_us":10}
{"id":4,"track":1,"name":"pair","start_us":200,"dur_us":100}
{"id":5,"parent":4,"track":1,"name":"sib","start_us":210,"dur_us":40}
{"id":6,"parent":4,"track":1,"name":"sib","start_us":230,"dur_us":40}
{"id":7,"track":1,"name":"short","start_us":400,"dur_us":50}
{"id":8,"parent":7,"track":1,"name":"long","start_us":430,"dur_us":60,"attrs":{"k":1}}
`
	recs, err := parseSpans(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	got := foldSelf(recs)
	want := map[string]spanStat{
		"root":  {Count: 1, TotalUS: 100, SelfUS: 70},
		"child": {Count: 1, TotalUS: 30, SelfUS: 20},
		"leaf":  {Count: 1, TotalUS: 10, SelfUS: 10},
		"pair":  {Count: 1, TotalUS: 100, SelfUS: 40}, // siblings cover [210, 270)
		"sib":   {Count: 2, TotalUS: 80, SelfUS: 80},
		"short": {Count: 1, TotalUS: 50, SelfUS: 30}, // the child covers [430, 450) of it
		"long":  {Count: 1, TotalUS: 60, SelfUS: 60},
	}
	if len(got) != len(want) {
		t.Fatalf("folded %d names, want %d: %+v", len(got), len(want), got)
	}
	for name, w := range want {
		if g := got[name]; g.Count != w.Count || math.Abs(g.TotalUS-w.TotalUS) > 1e-9 || math.Abs(g.SelfUS-w.SelfUS) > 1e-9 {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func TestFoldTracerReadsSpanNDJSON(t *testing.T) {
	tr := span.NewTracer()
	outer := tr.Start("outer")
	tr.Start("inner").End()
	tr.Start("inner").End()
	outer.End()
	got, err := foldTracer(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got["outer"].Count != 1 || got["inner"].Count != 2 {
		t.Fatalf("counts %+v", got)
	}
	o := got["outer"]
	if o.SelfUS < 0 || o.SelfUS > o.TotalUS-got["inner"].TotalUS+1e-6 {
		t.Fatalf("outer self %v not its duration minus its children's: %+v", o.SelfUS, got)
	}
	open := tr.Start("open")
	if _, err := foldTracer(tr); err == nil {
		t.Fatal("a still-open span must fail the fold")
	}
	open.End()
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		report bool
	}{
		{19, 50, 10, false}, // 9 samples above the median
		{20, 50, 10, true},
		{199, 95, 190, false},
		{200, 95, 190, true},
		{1000, 99, 990, true},
		{999, 99, 990, false},
	} {
		v, ok := percentile(seq(tc.n), tc.p)
		if v != tc.want || ok != tc.report {
			t.Errorf("p%g of %d samples = %v, %v; want %v, %v", tc.p, tc.n, v, ok, tc.want, tc.report)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("no samples, no percentile")
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json and the
// metrics and workloads the program prints in step.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		json, prog []metricDecl
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the program %d", len(c.json), len(c.prog))
		}
		for i := range c.prog {
			if c.json[i] != c.prog[i] {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, c.json[i], c.prog[i])
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at toy size in both modes and
// checks that the checks pass and every declared metric is printed with
// its unit.
func TestWorkloadsSmoke(t *testing.T) {
	small := func() *dcmodel.Cluster { return dcmodel.HeterogeneousCluster(60, 6) }
	tiny := map[string]func(options) (*report, error){
		"fleet-100k": func(o options) (*report, error) {
			return runFleet(o, fleetConfig{groups: 64, sites: 4, workers: 2, warm: 1, goldenSlots: 3, traceSlots: 2})
		},
		"fleet-replay": func(o options) (*report, error) {
			return runFleet(o, fleetConfig{groups: 64, sites: 4, replay: true, workers: 1, warm: 1, goldenSlots: 3, traceSlots: 2})
		},
		"cocad-decide": func(o options) (*report, error) {
			return runCocad(o, cocadConfig{cluster: small, iters: 40, gsdWorkers: 2, warm: 5, checkSlots: 20, traceSlots: 5})
		},
		"cocad-ingest": func(o options) (*report, error) {
			return runCocad(o, cocadConfig{cluster: small, iters: 20, ingest: true, warm: 5, checkSlots: 20, traceSlots: 10})
		},
		"paper-year": func(o options) (*report, error) {
			return runPaper(o, paperConfig{base: experiments.Config{Slots: 28 * 24, N: 2000}, minPasses: 1})
		},
	}
	for _, w := range workloads {
		run := tiny[w.name]
		if run == nil {
			t.Fatalf("no smoke configuration for workload %s", w.name)
		}
		for _, traced := range []bool{false, true} {
			o := options{seed: 3, trace: traced, setups: 1, workDir: t.TempDir()}
			r, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if len(r.problems) > 0 || r.failed > 0 || r.attempted == 0 {
				t.Fatalf("%s trace=%v: problems %v, %d of %d failed", w.name, traced, r.problems, r.failed, r.attempted)
			}
			decls := endToEnd
			if traced {
				decls = perLayer
			}
			var out bytes.Buffer
			if err := r.print(&out, w.name, decls, traced); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			text := out.String()
			lines := strings.Split(strings.TrimSpace(text), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if !res.Correct || len(res.Metrics) != len(decls) {
				t.Fatalf("%s trace=%v: result %+v", w.name, traced, res)
			}
			for _, d := range decls {
				if m := res.Metrics[d.Name]; m.Unit != d.Unit {
					t.Errorf("%s: JSON %s has unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
				}
				found := false
				for _, l := range lines {
					f := strings.Fields(l)
					found = found || (len(f) == 3 && f[0] == d.Name && f[2] == d.Unit)
				}
				if !found {
					t.Errorf("%s trace=%v: table has no %q line with unit %s", w.name, traced, d.Name, d.Unit)
				}
			}
			if !traced && res.Metrics["slots_per_s"].Value <= 0 {
				t.Errorf("%s: slots_per_s %v", w.name, res.Metrics["slots_per_s"].Value)
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-year", "--trace", "2"},
		{"--workload", "paper-year", "--seconds", "-1"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q; want 2 and no result", args, code, out.String())
		}
	}
}
