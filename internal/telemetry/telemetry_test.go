package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry/promtext"
	"repro/internal/telemetry/span"
)

func TestCounterConcurrentAdd(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 4000 {
		t.Fatalf("Value = %v, want 4000", got)
	}
}

func TestGaugeSetAdd(t *testing.T) {
	var g Gauge
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("Value = %v, want 1.5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 99, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// Inclusive upper edges: 0.5,1 | 5,10 | 99 | 1000.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 || s.Min != 0.5 || s.Max != 1000 {
		t.Fatalf("count/min/max = %d/%v/%v", s.Count, s.Min, s.Max)
	}
	if math.Abs(s.Mean-s.Sum/6) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean)
	}
}

// TestHistogramObserveNaN pins the defined behavior for invalid samples:
// a NaN observation lands in the dedicated Invalid count and leaves every
// bucket and the Count/Sum/Min/Max/Mean statistics untouched — previously
// it fell silently into the overflow bucket and turned Sum/Mean into NaN
// for the rest of the run.
func TestHistogramObserveNaN(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Observe(5)
	h.Observe(math.NaN())
	h.Observe(math.NaN())
	s := h.Snapshot()
	if s.Invalid != 2 {
		t.Fatalf("Invalid = %d, want 2", s.Invalid)
	}
	if s.Count != 1 || s.Sum != 5 || s.Min != 5 || s.Max != 5 || s.Mean != 5 {
		t.Fatalf("NaN leaked into the statistics: %+v", s)
	}
	if s.Counts[len(s.Counts)-1] != 0 {
		t.Fatalf("NaN leaked into the overflow bucket: %v", s.Counts)
	}
}

// TestCounterGaugeNaN pins the accumulator audit: NaN deltas are dropped
// (an accumulated NaN is irreversible), while Gauge.Set keeps last-write-
// wins semantics — a stored NaN heals on the next Set.
func TestCounterGaugeNaN(t *testing.T) {
	var c Counter
	c.Add(2)
	c.Add(math.NaN())
	if got := c.Value(); got != 2 {
		t.Fatalf("Counter after NaN delta = %v, want 2", got)
	}
	var g Gauge
	g.Set(3)
	g.Add(math.NaN())
	if got := g.Value(); got != 3 {
		t.Fatalf("Gauge after NaN delta = %v, want 3", got)
	}
	g.Set(math.NaN())
	if !math.IsNaN(g.Value()) {
		t.Fatal("Gauge.Set is last-write-wins and must store NaN as written")
	}
	g.Set(1)
	if got := g.Value(); got != 1 {
		t.Fatalf("Gauge did not heal after Set: %v", got)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	s := NewHistogram(ExpBuckets(1, 2, 4)).Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Mean != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", got)
		}
	}
	if ExpBuckets(1, 2, 0) != nil {
		t.Fatal("ExpBuckets(n=0) should be nil")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("h", []float64{1}) != r.Histogram("h", nil) {
		t.Fatal("Histogram not idempotent")
	}
	r.Counter("a").Add(2)
	r.Gauge("g").Set(7)
	r.Histogram("h", nil).Observe(0.5)
	s := r.Snapshot()
	if s.Counters["a"] != 2 || s.Gauges["g"] != 7 || s.Histograms["h"].Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("summary JSON does not round-trip: %v", err)
	}
	if round.Counters["a"] != 2 {
		t.Fatalf("round-tripped counter = %v", round.Counters["a"])
	}
}

func TestRunMetricsObserve(t *testing.T) {
	r := NewRegistry()
	m := NewRunMetrics(r, "run")
	obs := m.Observer()
	obs(sim.SlotRecord{Slot: 0, TotalUSD: 10, GridKWh: 5, DeficitKWh: -1, Active: 3, Speed: 2})
	obs(sim.SlotRecord{Slot: 1, TotalUSD: 20, GridKWh: 7, DeficitKWh: 4, Active: 4, Speed: 1})
	if got := m.Slots.Value(); got != 2 {
		t.Fatalf("slots = %v", got)
	}
	if got := m.TotalUSD.Value(); got != 30 {
		t.Fatalf("total = %v", got)
	}
	if got := m.DeficitKWh.Value(); got != 3 {
		t.Fatalf("deficit sum = %v", got)
	}
	if m.LastSlot.Value() != 1 || m.LastActive.Value() != 4 || m.LastSpeed.Value() != 1 {
		t.Fatal("last-slot gauges not updated")
	}
	if m.SlotCostUSD.Snapshot().Count != 2 {
		t.Fatal("cost histogram missed slots")
	}
}

func TestSlotStreamerNDJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewSlotStreamer(&buf)
	obs := s.Observer()
	obs(sim.SlotRecord{Slot: 0, LambdaRPS: 100, TotalUSD: 1.5, GridKWh: 2})
	obs(sim.SlotRecord{Slot: 1, LambdaRPS: 200, TotalUSD: 2.5, GridKWh: 3})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d NDJSON lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if int(rec["slot"].(float64)) != i {
			t.Fatalf("line %d has slot %v", i, rec["slot"])
		}
	}
}

// The sticky-error semantics (first failed flush silences the stream and
// surfaces from Close) are pinned in stream_test.go.

// TestSlotStreamerFlushesPerRecord pins live-tailability: each record is
// visible downstream as soon as Observe returns, not only at Close.
func TestSlotStreamerFlushesPerRecord(t *testing.T) {
	var buf bytes.Buffer
	s := NewSlotStreamer(&buf)
	s.Observe(sim.SlotRecord{Slot: 7})
	if buf.Len() == 0 {
		t.Fatal("record not flushed at Observe time")
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	if !sc.Scan() {
		t.Fatal("no line flushed")
	}
	var rec map[string]any
	if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if int(rec["slot"].(float64)) != 7 {
		t.Fatalf("slot = %v", rec["slot"])
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("run.slots").Add(3)
	tr := span.NewTracer()
	tr.Start("demo").End()
	srv := httptest.NewServer(Handler(r, tr))
	defer srv.Close()

	for _, path := range []string{"/metrics", "/spans", "/debug/pprof/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Fatalf("%s: empty body", path)
		}
	}

	// /metrics is the one metrics read-out: no JSON copy, no expvar.
	for _, path := range []string{"/metrics.json", "/debug/vars"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}

	promResp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := promResp.Header.Get("Content-Type"); ct != promtext.ContentType {
		t.Fatalf("/metrics content type = %q, want %q", ct, promtext.ContentType)
	}
	fams, err := promtext.Parse(promResp.Body)
	promResp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v", err)
	}
	if s, ok := promtext.Find(fams, "run_slots"); !ok || s.Value != 3 {
		t.Fatalf("/metrics run_slots = %+v (ok=%v), want 3", s, ok)
	}

	spansResp, err := http.Get(srv.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer spansResp.Body.Close()
	var sum span.Summary
	if err := json.NewDecoder(spansResp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Spans != 1 || len(sum.ByName) != 1 || sum.ByName[0].Name != "demo" {
		t.Fatalf("/spans summary = %+v", sum)
	}

	// Without a tracer, /spans is a clean 404, not a panic or empty 200.
	noTr := httptest.NewServer(Handler(r, nil))
	defer noTr.Close()
	resp404, err := http.Get(noTr.URL + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("/spans without tracer: status %d, want 404", resp404.StatusCode)
	}
}

// TestServeShutdownReleasesListener pins the serve/shutdown contract the
// CLI relies on at run end: after Shutdown returns, the port can be
// re-bound immediately (the listener is actually closed, not leaked).
func TestServeShutdownReleasesListener(t *testing.T) {
	r := NewRegistry()
	srv, addr, err := Serve("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatalf("server not serving: %v", err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The exact port must be free again.
	ln, err := net.Listen("tcp", addr.String())
	if err != nil {
		t.Fatalf("port still held after Shutdown: %v", err)
	}
	ln.Close()
	if _, err := http.Get("http://" + addr.String() + "/metrics"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
}
