package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/lyapunov"
	"repro/internal/serve"
	"repro/internal/telemetry/promtext"
)

// startDaemon runs the daemon body in a goroutine and returns its base URL
// and a kill function that triggers graceful shutdown and waits for the
// final checkpoint to land.
func startDaemon(t *testing.T, args ...string) (base string, kill func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	var errBuf bytes.Buffer
	go func() {
		done <- run(ctx, args, &bytes.Buffer{}, &errBuf, func(addr string) { ready <- addr })
	}()
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v\nstderr: %s", err, errBuf.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	var once bool
	kill = func() {
		if once {
			return
		}
		once = true
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exited with %v\nstderr: %s", err, errBuf.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not shut down")
		}
	}
	t.Cleanup(kill)
	return base, kill
}

// emitNDJSON renders the daemon's own synthetic stream for [start, start+count).
func emitNDJSON(t *testing.T, start, count int) string {
	t.Helper()
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-n", "15", "-groups", "3", "-seed", "7",
		"-emit-slots", strconv.Itoa(count), "-emit-start", strconv.Itoa(start),
	}, &out, &bytes.Buffer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func ingest(t *testing.T, base, ndjson string) int {
	t.Helper()
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", strings.NewReader(ndjson))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if msg, ok := m["error"]; ok {
			t.Fatalf("ingest error after %d slots: %v", n, msg)
		}
		n++
	}
	return n
}

func getState(t *testing.T, base string) serve.State {
	t.Helper()
	resp, err := http.Get(base + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDaemonKillRestoreParity is the end-to-end acceptance smoke: stream
// 50 slots, SIGTERM-equivalent shutdown (final checkpoint), restart with
// -restore, stream the next 50, and require the final state hash to equal
// an uninterrupted 100-slot run's.
func TestDaemonKillRestoreParity(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt.json")
	common := []string{
		"-n", "15", "-groups", "3", "-seed", "7",
		"-frames", "13", "-frame", "24", "-checkpoint-every", "10",
	}

	base, kill := startDaemon(t, append([]string{"-addr", "127.0.0.1:0", "-checkpoint", ckpt}, common...)...)
	if n := ingest(t, base, emitNDJSON(t, 0, 50)); n != 50 {
		t.Fatalf("first leg settled %d slots", n)
	}
	kill()

	base2, kill2 := startDaemon(t, append([]string{
		"-addr", "127.0.0.1:0", "-checkpoint", ckpt, "-restore", ckpt,
	}, common...)...)
	st := getState(t, base2)
	if st.Slot != 50 || !st.Restored {
		t.Fatalf("restored daemon state = %+v, want slot 50 restored", st)
	}
	if n := ingest(t, base2, emitNDJSON(t, 50, 50)); n != 50 {
		t.Fatalf("second leg settled %d slots", n)
	}
	interrupted := getState(t, base2)
	kill2()

	ckptRef := filepath.Join(dir, "ref.ckpt.json")
	base3, kill3 := startDaemon(t, append([]string{"-addr", "127.0.0.1:0", "-checkpoint", ckptRef}, common...)...)
	if n := ingest(t, base3, emitNDJSON(t, 0, 100)); n != 100 {
		t.Fatalf("reference run settled %d slots", n)
	}
	reference := getState(t, base3)
	kill3()

	if interrupted.Slot != 100 || reference.Slot != 100 {
		t.Fatalf("slot counts: interrupted %d, reference %d", interrupted.Slot, reference.Slot)
	}
	if interrupted.Hash != reference.Hash {
		t.Fatalf("state hash after kill+restore %s, uninterrupted %s", interrupted.Hash, reference.Hash)
	}
	if interrupted.TotalUSD != reference.TotalUSD || interrupted.GridKWh != reference.GridKWh {
		t.Fatalf("accounting diverges: %+v vs %+v", interrupted, reference)
	}
}

// TestDaemonEndpointsOneListener confirms the app and telemetry surfaces
// share the mux, that /metrics is the only metrics read-out, and that
// /spans answers 404 because the daemon attaches no span tracer.
func TestDaemonEndpointsOneListener(t *testing.T) {
	dir := t.TempDir()
	base, _ := startDaemon(t, "-addr", "127.0.0.1:0",
		"-checkpoint", filepath.Join(dir, "ck.json"), "-n", "15", "-groups", "3")
	for _, path := range []string{"/state", "/checkpoint", "/metrics", "/healthz", "/readyz"} {
		if code := getStatus(t, base+path); code != http.StatusOK {
			t.Errorf("GET %s = %d", path, code)
		}
	}
	for _, path := range []string{"/metrics.json", "/debug/vars", "/spans"} {
		if code := getStatus(t, base+path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
}

// TestDaemonMetricsExposition pins the daemon's scrape surface: after a
// few settled slots, /metrics is Prometheus text carrying site-labeled
// controller series and the runtime collector's gauges.
func TestDaemonMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	base, _ := startDaemon(t, "-addr", "127.0.0.1:0", "-site", "dc-east",
		"-checkpoint", filepath.Join(dir, "ck.json"), "-n", "15", "-groups", "3")
	if n := ingest(t, base, emitNDJSON(t, 0, 5)); n != 5 {
		t.Fatalf("settled %d slots, want 5", n)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := promtext.Parse(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v", err)
	}
	slots, ok := promtext.Find(fams, "cocad_slots", promtext.Label{Name: "site", Value: "dc-east"})
	if !ok || slots.Value != 5 {
		t.Fatalf(`cocad_slots{site="dc-east"} = %+v (ok=%v), want 5`, slots, ok)
	}
	if _, ok := promtext.Find(fams, "runtime_goroutines"); !ok {
		t.Fatal("runtime collector series missing from /metrics")
	}
	if _, ok := promtext.Find(fams, "http_requests",
		promtext.Label{Name: "path", Value: "/ingest"}, promtext.Label{Name: "code", Value: "200"}); !ok {
		t.Fatal(`http_requests{path="/ingest",code="200"} missing from /metrics`)
	}
}

// TestDaemonNoPprof pins the -no-pprof gate: the profiling surface is
// unmounted while the rest of the telemetry surface stays up.
func TestDaemonNoPprof(t *testing.T) {
	dir := t.TempDir()
	base, _ := startDaemon(t, "-addr", "127.0.0.1:0", "-no-pprof",
		"-checkpoint", filepath.Join(dir, "ck.json"), "-n", "15", "-groups", "3")
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/pprof/ with -no-pprof = %d, want 404", resp.StatusCode)
	}
	for _, path := range []string{"/metrics", "/healthz"} {
		if code := getStatus(t, base+path); code != http.StatusOK {
			t.Errorf("GET %s = %d", path, code)
		}
	}
	for _, path := range []string{"/metrics.json", "/debug/vars"} {
		if code := getStatus(t, base+path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
}

// TestDaemonReadyzSettleAge pins the settle-age readiness bound: fresh
// daemons are ready (nothing settled yet), and a stalled feed flips
// /readyz to 503 once the last settle outlives the bound.
func TestDaemonReadyzSettleAge(t *testing.T) {
	dir := t.TempDir()
	base, _ := startDaemon(t, "-addr", "127.0.0.1:0", "-ready-max-settle-age", "50ms",
		"-checkpoint", filepath.Join(dir, "ck.json"), "-n", "15", "-groups", "3")
	if code := getStatus(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("fresh daemon /readyz = %d, want 200", code)
	}
	if n := ingest(t, base, emitNDJSON(t, 0, 1)); n != 1 {
		t.Fatalf("settled %d slots, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := getStatus(t, base+"/readyz"); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 after the feed stalled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Liveness is unaffected by readiness.
	if code := getStatus(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d while unready, want 200", code)
	}
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-n", "-5"},
		{"-groups", "0"},
		{"-v", "0"},
		{"-checkpoint-every", "-1"},
		{"-groups", "10", "-n", "4"},
		{"-beta", "NaN"},
		{"-emit-slots", "-1"},
		{"-emit-slots", "10", "-emit-start", "-2"},
	}
	for _, args := range cases {
		err := run(context.Background(), args, &bytes.Buffer{}, &bytes.Buffer{}, nil)
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want usage error", args, err)
		}
	}
}

func TestEmitSlotsWindows(t *testing.T) {
	full := emitNDJSON(t, 0, 100)
	split := emitNDJSON(t, 0, 50) + emitNDJSON(t, 50, 50)
	if full != split {
		t.Fatal("emitted stream is not position-addressable across windows")
	}
	if got := strings.Count(full, "\n"); got != 100 {
		t.Fatalf("emitted %d records, want 100", got)
	}
}

// TestWriteCheckpointRestoreRoundTrip writes a checkpoint of a service that
// has settled some slots, restores it into a freshly built one and requires
// the same /state hash and accounting; no temp file may be left beside the
// checkpoint, and a write into a missing directory must fail.
func TestWriteCheckpointRestoreRoundTrip(t *testing.T) {
	newSvc := func() *serve.Service {
		cluster := dcmodel.HeterogeneousCluster(15, 3)
		ctrl, err := core.NewController(cluster, 0.02, lyapunov.ConstantV(5e5, 13, 24), 1, 2,
			&gsd.Solver{Opts: gsd.Options{Delta: 1e4, MaxIters: 150, Seed: 7}})
		if err != nil {
			t.Fatal(err)
		}
		return serve.New(ctrl)
	}
	src := newSvc()
	var stream bytes.Buffer
	if err := emit(&stream, dcmodel.HeterogeneousCluster(15, 3), 7, 0, 30); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&stream)
	for dec.More() {
		var in serve.SlotInput
		if err := dec.Decode(&in); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Step(in); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt.json")
	if err := writeCheckpoint(path, src); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(path, src); err != nil { // overwrite in place
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "run.ckpt.json" {
		t.Fatalf("checkpoint directory holds %v, want only run.ckpt.json", entries)
	}

	dst := newSvc()
	if err := restoreCheckpoint(path, dst); err != nil {
		t.Fatal(err)
	}
	want, got := src.State(), dst.State()
	if got.Slot != 30 || !got.Restored {
		t.Fatalf("restored state = %+v, want slot 30 restored", got)
	}
	if got.Hash != want.Hash || got.TotalUSD != want.TotalUSD || got.GridKWh != want.GridKWh {
		t.Fatalf("restored state %+v, written %+v", got, want)
	}

	if err := writeCheckpoint(filepath.Join(dir, "missing", "ck.json"), src); err == nil {
		t.Fatal("writeCheckpoint into a missing directory succeeded")
	}
	if err := restoreCheckpoint(filepath.Join(dir, "missing.json"), newSvc()); err == nil {
		t.Fatal("restoreCheckpoint of a missing file succeeded")
	}
}
