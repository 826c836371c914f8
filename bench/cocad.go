package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/lyapunov"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

// cocadConfig sizes one live-daemon workload: an in-process serve.Service
// behind cocad's handler on a loopback http.Server, driven by one client.
type cocadConfig struct {
	golden     string // golden.json key; empty skips the golden check
	cluster    func() *dcmodel.Cluster
	iters      int  // GSD iteration budget per slot
	gsdWorkers int  // speculative evaluators per solve (0: sequential)
	ingest     bool // one pipelined NDJSON /ingest stream instead of /decide calls
	warm       int  // warm-up slots before timing
	checkSlots int  // leading slots compared with an in-process sequential Service
	traceSlots int  // timed slots in each arm of the trace-overhead pair
}

func cocadDecide() cocadConfig {
	return cocadConfig{golden: "cocad-decide", cluster: func() *dcmodel.Cluster { return dcmodel.PaperCluster(200) },
		iters: 500, gsdWorkers: benchWorkers, warm: 24, checkSlots: 48, traceSlots: 48}
}

func cocadIngest() cocadConfig {
	return cocadConfig{golden: "cocad-ingest", cluster: func() *dcmodel.Cluster { return dcmodel.HeterogeneousCluster(60, 6) },
		iters: 150, ingest: true, warm: 250, checkSlots: 1000, traceSlots: 300}
}

// cocad's flag defaults.
const (
	cocadBeta       = 0.02
	cocadV          = 5e5
	cocadAlpha      = 1.0
	cocadRECKWh     = 2.0
	cocadSwitchKWh  = 0.231
	cocadDelta      = 1e4
	cocadFrameSlots = 24
	ckptEvery       = 25
	// cocadFrames is ten years of daily frames, so no time-bounded run
	// exhausts the V schedule.
	cocadFrames  = 3650
	scrapeEvery  = 100 * time.Millisecond
	ingestWindow = 256 // slots the ingest producer may run ahead of the decisions read back
)

func (cfg cocadConfig) gsdOptions(seed uint64, workers int) gsd.Options {
	return gsd.Options{Delta: cocadDelta, MaxIters: cfg.iters, Seed: seed, Workers: workers}
}

// newCocadController builds the controller cocad builds, on cfg's cluster.
func newCocadController(cfg cocadConfig, opts gsd.Options) (*core.Controller, *gsd.Solver, error) {
	solver := &gsd.Solver{Opts: opts}
	ctrl, err := core.NewController(cfg.cluster(), cocadBeta,
		lyapunov.ConstantV(cocadV, cocadFrames, cocadFrameSlots), cocadAlpha, cocadRECKWh, solver)
	if err != nil {
		return nil, nil, err
	}
	ctrl.SwitchCostKWh = cocadSwitchKWh
	return ctrl, solver, nil
}

// slotInputs is the `cocad -emit-slots` stream scaled to a cluster: demand
// peaks at half its capacity, with modest on-site and off-site feeds.
type slotInputs struct {
	seed                  uint64
	peak, onsite, offsite float64
}

func newSlotInputs(seed uint64, c *dcmodel.Cluster) slotInputs {
	servers := float64(c.TotalServers())
	return slotInputs{seed: seed, peak: 0.5 * c.Gamma * c.MaxCapacityRPS(), onsite: 0.02 * servers, offsite: 0.01 * servers}
}

func (s slotInputs) at(t int) serve.SlotInput {
	return serve.SyntheticSlots(s.seed, t, 1, s.peak, s.onsite, s.offsite)[0]
}

// foldDecision folds every field of a decision into h.
func foldDecision(h *fnv64, d serve.Decision) {
	h.u64(uint64(d.Slot))
	for _, k := range d.Speeds {
		h.u64(uint64(k))
	}
	h.u64(uint64(d.Active))
	h.floats(d.Queue, d.GridKWh, d.TotalUSD)
	h.str(d.Hash)
}

// timedSolver is the bench's timer around the controller's GSD solver. It
// embeds the solver so the controller's checkpoints still carry its state.
type timedSolver struct {
	*gsd.Solver
	nanos, calls atomic.Int64
}

func (t *timedSolver) Solve(p *dcmodel.SlotProblem) (dcmodel.Solution, error) {
	start := time.Now()
	sol, err := t.Solver.Solve(p)
	t.nanos.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return sol, err
}

func (t *timedSolver) reset() { t.nanos.Store(0); t.calls.Store(0) }

func (t *timedSolver) meanMS() float64 {
	return ratio(float64(t.nanos.Load())/1e6, float64(t.calls.Load()))
}

// cocadSys is one served controller and the client that drives it.
type cocadSys struct {
	cfg    cocadConfig
	svc    *serve.Service
	reg    *telemetry.Registry
	timed  *timedSolver // nil unless instrumented
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
	inputs slotInputs
	next   int // next slot to send
	failed int // non-2xx responses and NDJSON error records
	hash   fnv64
	check  string // digest of the decisions for slots [0, checkSlots)
}

// startCocad serves a fresh controller on a loopback listener, with the
// site metrics and runtime collector cocad registers. instrumented adds
// GSD solve metrics and the solver timer; tr records GSD spans.
func startCocad(cfg cocadConfig, seed uint64, instrumented bool, tr *span.Tracer) (*cocadSys, error) {
	reg := telemetry.NewRegistry()
	opts := cfg.gsdOptions(seed, cfg.gsdWorkers)
	opts.Tracer = tr
	if instrumented {
		opts.Metrics = telemetry.NewSolveMetrics(reg, "gsd")
	}
	ctrl, solver, err := newCocadController(cfg, opts)
	if err != nil {
		return nil, err
	}
	c := &cocadSys{cfg: cfg, reg: reg, inputs: newSlotInputs(seed, ctrl.Cluster), hash: newFNV()}
	if instrumented {
		c.timed = &timedSolver{Solver: solver}
		ctrl.Solver = c.timed
	}
	c.svc = serve.New(ctrl)
	c.svc.Instrument(serve.NewSiteMetrics(reg, "cocad", "bench"))
	telemetry.NewRuntimeMetrics(reg, "runtime")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.srv = &http.Server{Handler: c.svc.HandlerWith(reg, nil, serve.HandlerOpts{
		Telemetry: telemetry.RegisterOpts{NoPprof: true},
	})}
	c.served = make(chan error, 1)
	go func() { c.served <- c.srv.Serve(ln) }()
	c.base = "http://" + ln.Addr().String()
	c.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	return c, nil
}

// close shuts the server down and waits for it; in-flight handlers finish
// first, so the request metrics are complete afterwards.
func (c *cocadSys) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := c.srv.Shutdown(ctx)
	if err != nil {
		c.srv.Close()
	}
	if serr := <-c.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	c.client.CloseIdleConnections()
	return err
}

// record folds a decision into the check digest while it covers the
// leading checkSlots slots.
func (c *cocadSys) record(d serve.Decision) {
	if d.Slot >= c.cfg.checkSlots {
		return
	}
	foldDecision(&c.hash, d)
	if d.Slot == c.cfg.checkSlots-1 {
		c.check = c.hash.String()
	}
}

// decide POSTs the next slot to /decide and returns the round trip, from
// writing the request to the decoded decision.
func (c *cocadSys) decide() (time.Duration, error) {
	body, err := json.Marshal(c.inputs.at(c.next))
	if err != nil {
		return 0, err
	}
	c.next++
	start := time.Now()
	resp, err := c.client.Post(c.base+"/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var d serve.Decision
	if resp.StatusCode != http.StatusOK {
		c.failed++
		_, err = io.Copy(io.Discard, resp.Body)
		return time.Since(start), err
	}
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return 0, fmt.Errorf("decode decision: %w", err)
	}
	rtt := time.Since(start)
	c.record(d)
	return rtt, nil
}

// streamStats is one /ingest stream as the client saw it.
type streamStats struct {
	slots  int
	wall   time.Duration // request start to the last decision
	gapsMS []float64     // between consecutive decisions
}

// ingest sends slots from c.next on one pipelined /ingest request, at most
// ingestWindow ahead of the decisions read back, until limit slots are sent
// or enough(decisions, elapsed) holds, and reads every decision back.
func (c *cocadSys) ingest(limit int, enough func(int, time.Duration) bool) (streamStats, error) {
	var st streamStats
	pr, pw := io.Pipe()
	credits := make(chan struct{}, ingestWindow)
	for i := 0; i < ingestWindow; i++ {
		credits <- struct{}{}
	}
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	produced := make(chan error, 1)
	first := c.next
	go func() {
		enc := json.NewEncoder(pw)
		var err error
	send:
		for i := 0; i < limit; i++ {
			select {
			case <-stop:
				break send
			case <-credits:
			}
			if err = enc.Encode(c.inputs.at(first + i)); err != nil {
				break
			}
		}
		pw.CloseWithError(err)
		produced <- err
	}()
	// abort unblocks and reaps the producer on an early exit.
	abort := func(err error) (streamStats, error) {
		halt()
		pr.CloseWithError(err)
		<-produced
		return st, err
	}

	req, err := http.NewRequest(http.MethodPost, c.base+"/ingest", pr)
	if err != nil {
		return abort(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return abort(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.failed++
		return abort(fmt.Errorf("ingest: HTTP %s", resp.Status))
	}
	dec := json.NewDecoder(resp.Body)
	last := start
	for {
		var rec struct {
			serve.Decision
			Error string `json:"error"`
		}
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return abort(fmt.Errorf("ingest: decode decision: %w", err))
		}
		now := time.Now()
		if rec.Error != "" {
			// The service ends the stream after an error record.
			c.failed++
			return abort(fmt.Errorf("ingest: slot %d: %s", c.next, rec.Error))
		}
		c.record(rec.Decision)
		c.next++
		st.slots++
		st.gapsMS = append(st.gapsMS, millis(now.Sub(last)))
		last = now
		credits <- struct{}{}
		if enough != nil && enough(st.slots, now.Sub(start)) {
			halt()
		}
	}
	st.wall = last.Sub(start)
	halt()
	return st, <-produced
}

// ckptWriter is cocad's periodic checkpointer: every ckptEvery settled
// slots the settle hook (run under the service lock) nudges a writer
// goroutine, which snapshots the service off the ingest path and writes
// the JSON atomically. A nudge that finds a write still pending is
// coalesced.
type ckptWriter struct {
	svc       *serve.Service
	path      string
	wake      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	coalesced atomic.Int64

	// Owned by the writer goroutine until close returns.
	snapshot, write time.Duration
	count, failed   int
}

func startCkptWriter(svc *serve.Service, dir string) *ckptWriter {
	w := &ckptWriter{
		svc: svc, path: filepath.Join(dir, "cocad.ckpt.json"),
		wake: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{}),
	}
	svc.SetOnSettle(func(slot int) {
		if slot%ckptEvery == 0 {
			select {
			case w.wake <- struct{}{}:
			default:
				w.coalesced.Add(1)
			}
		}
	})
	go func() {
		defer close(w.done)
		for {
			select {
			case <-w.stop:
				return
			case <-w.wake:
				w.writeOne()
			}
		}
	}()
	return w
}

func (w *ckptWriter) writeOne() {
	t0 := time.Now()
	ck, err := w.svc.Checkpoint()
	t1 := time.Now()
	if err == nil {
		err = writeCheckpoint(w.path, ck)
	}
	w.snapshot += t1.Sub(t0)
	w.write += time.Since(t1)
	w.count++
	if err != nil {
		w.failed++
	}
}

func (w *ckptWriter) close() {
	w.svc.SetOnSettle(nil)
	close(w.stop)
	<-w.done
}

// writeCheckpoint is cocad's writer: MarshalIndent, a temp file in the
// target directory, fsync, rename.
func writeCheckpoint(path string, ck serve.Checkpoint) error {
	blob, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// scraper GETs /metrics on its own connection every scrapeEvery.
type scraper struct {
	client     *http.Client
	url        string
	stop, done chan struct{}

	// Owned by the scraper goroutine until close returns.
	total         time.Duration
	count, failed int
}

func startScraper(base string) *scraper {
	s := &scraper{
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
		url:    base + "/metrics", stop: make(chan struct{}), done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.scrapeOne()
			}
		}
	}()
	return s
}

func (s *scraper) scrapeOne() {
	start := time.Now()
	resp, err := s.client.Get(s.url)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = errors.New(resp.Status)
		}
	}
	s.total += time.Since(start)
	s.count++
	if err != nil {
		s.failed++
	}
}

func (s *scraper) close() {
	close(s.stop)
	<-s.done
	s.client.CloseIdleConnections()
}

// ingestBeside runs one /ingest stream with the checkpoint writer and the
// /metrics scraper running beside it, and folds their failures into c.
func (c *cocadSys) ingestBeside(dir string, limit int, enough func(int, time.Duration) bool) (streamStats, *ckptWriter, *scraper, error) {
	w := startCkptWriter(c.svc, dir)
	s := startScraper(c.base)
	st, err := c.ingest(limit, enough)
	s.close()
	w.close()
	c.failed += w.failed + s.failed
	return st, w, s, err
}

func (c *cocadSys) warmUp() error {
	if c.cfg.ingest {
		_, err := c.ingest(c.cfg.warm, nil)
		return err
	}
	for i := 0; i < c.cfg.warm; i++ {
		if _, err := c.decide(); err != nil {
			return err
		}
	}
	return nil
}

// runCocad runs a live-daemon workload: set-up, the timed closed loop, the
// check against an in-process sequential Service, and in a traced run the
// per-layer table.
func runCocad(o options, cfg cocadConfig) (*report, error) {
	r := newReport()
	var dir string // checkpoint files of cocad-ingest
	if cfg.ingest {
		var err error
		if dir, err = scratch(o.workDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	setups := o.setups
	if o.trace {
		setups = 1
	}
	sys, setupS, err := medianSetup(setups, func() (*cocadSys, func(), error) {
		c, err := startCocad(cfg, o.seed, o.trace, nil)
		if err != nil {
			return nil, nil, err
		}
		if err := c.warmUp(); err != nil {
			c.close()
			return nil, nil, err
		}
		return c, func() { c.close() }, nil
	})
	if err != nil {
		return nil, err
	}
	if sys.timed != nil {
		sys.timed.reset()
	}
	var before telemetry.Snapshot
	if o.trace {
		before = sys.reg.Snapshot()
	}
	rt0 := readRuntime()
	var (
		ms   []float64
		wall time.Duration
		w    *ckptWriter
		s    *scraper
	)
	if cfg.ingest {
		var st streamStats
		st, w, s, err = sys.ingestBeside(dir, cocadFrames*cocadFrameSlots-cfg.warm, func(n int, el time.Duration) bool {
			return n >= cfg.checkSlots-cfg.warm && el >= o.duration()
		})
		ms, wall = st.gapsMS, st.wall
	} else {
		ms, wall, err = timedLoop(o.duration(), cfg.checkSlots-cfg.warm, sys.decide)
	}
	if err != nil {
		sys.close()
		return nil, err
	}
	rt1 := readRuntime()
	n, meanMS := float64(len(ms)), mean(ms)
	r.attempted += len(ms)
	if !o.trace {
		if cfg.ingest {
			r.latency("decision_gap_ms", ms)
		} else {
			r.latency("slot_ms", ms)
		}
	}
	ms = nil // the samples are the bench's own memory: keep them out of live_heap_mb
	heap := liveHeapMB()
	if err := sys.close(); err != nil {
		return nil, err
	}
	r.failed += sys.failed

	ref, err := cocadReference(cfg, o.seed)
	if err != nil {
		return nil, err
	}
	r.check(sys.check == ref, "HTTP decisions of the first %d slots hash %s, in-process sequential Service %s",
		cfg.checkSlots, sys.check, ref)
	r.checkGolden(o, cfg.golden, sys.check)

	if !o.trace {
		r.set("setup_s", setupS)
		r.set("slots_per_s", n/wall.Seconds())
		r.set("live_heap_mb", heap)
		if cfg.ingest {
			r.notef("checkpoints %d written, %d coalesced; scrapes %d", w.count, w.coalesced.Load(), s.count)
		}
		return r, nil
	}

	// Per-layer numbers from the instrumented untraced run.
	after := sys.reg.Snapshot()
	flatSolveCounts(after).sub(flatSolveCounts(before)).layers(r, n)
	solverMS := sys.timed.meanMS()
	stepN, stepSum := histDelta(after, before, "cocad.step_seconds", "bench")
	stepUS := 1e6 * ratio(stepSum, stepN)
	r.set("gsd.solver_ms", solverMS)
	r.set("serve.step_us", stepUS)
	r.set("core.step_other_us", stepUS-1e3*solverMS)
	r.set("runtime.gc_cpu_frac", gcFrac(rt0, rt1))
	if cfg.ingest {
		_, handlerSum := histDelta(after, before, "http.request_seconds", "/ingest")
		r.set("serve.handler_ms", 1e3*handlerSum/n)
		r.set("serve.ingest_io_us", 1e6*wall.Seconds()/n-stepUS)
		r.set("serve.ckpt_snapshot_us", 1e6*ratio(w.snapshot.Seconds(), float64(w.count)))
		r.set("serve.ckpt_write_ms", 1e3*ratio(w.write.Seconds(), float64(w.count)))
		r.set("serve.ckpt_count", float64(w.count))
		r.set("serve.ckpt_coalesced", float64(w.coalesced.Load()))
		r.set("telemetry.scrape_ms", 1e3*ratio(s.total.Seconds(), float64(s.count)))
		r.set("telemetry.scrapes", float64(s.count))
	} else {
		handlerN, handlerSum := histDelta(after, before, "http.request_seconds", "/decide")
		handlerMS := 1e3 * ratio(handlerSum, handlerN)
		r.set("serve.handler_ms", handlerMS)
		r.set("serve.rtt_overhead_ms", meanMS-handlerMS)
	}

	// Only the server's handler goroutine opens ambient spans: the client,
	// the checkpoint writer and the scraper are timed by the bench.
	bareWall, bare, err := cocadArm(o, cfg, dir, nil)
	if err != nil {
		return nil, err
	}
	tr := span.NewTracer()
	tracedWall, traced, err := cocadArm(o, cfg, dir, tr)
	if err != nil {
		return nil, err
	}
	r.attempted += 2 * cfg.traceSlots
	r.failed += bare.failed + traced.failed
	r.check(traced.hash == bare.hash, "traced service diverged from the untraced one")
	folded, err := foldTracer(tr)
	if err != nil {
		return nil, err
	}
	r.set("telemetry.trace_overhead_frac", tracedWall.Seconds()/bareWall.Seconds()-1)
	gsdSpanLayers(r, folded)
	return r, nil
}

// cocadArm serves an instrumented controller, warms it up, and times
// cfg.traceSlots slots, traced when tr is non-nil (warm-up spans are
// discarded).
func cocadArm(o options, cfg cocadConfig, dir string, tr *span.Tracer) (time.Duration, *cocadSys, error) {
	c, err := startCocad(cfg, o.seed, true, tr)
	if err != nil {
		return 0, nil, err
	}
	if err := c.warmUp(); err != nil {
		c.close()
		return 0, nil, err
	}
	tr.Reset()
	var wall time.Duration
	if cfg.ingest {
		var st streamStats
		st, _, _, err = c.ingestBeside(dir, cfg.traceSlots, nil)
		wall = st.wall
	} else {
		start := time.Now()
		for i := 0; i < cfg.traceSlots && err == nil; i++ {
			_, err = c.decide()
		}
		wall = time.Since(start)
	}
	if cerr := c.close(); err == nil {
		err = cerr
	}
	return wall, c, err
}

// cocadReference steps an in-process Service with sequential GSD through
// the leading checkSlots slots and digests its decisions, the reference the
// HTTP decisions must equal bit for bit.
func cocadReference(cfg cocadConfig, seed uint64) (string, error) {
	ctrl, _, err := newCocadController(cfg, cfg.gsdOptions(seed, 0))
	if err != nil {
		return "", err
	}
	svc := serve.New(ctrl)
	in := newSlotInputs(seed, ctrl.Cluster)
	h := newFNV()
	for t := 0; t < cfg.checkSlots; t++ {
		d, err := svc.Step(in.at(t))
		if err != nil {
			return "", fmt.Errorf("reference slot %d: %w", t, err)
		}
		foldDecision(&h, d)
	}
	return h.String(), nil
}

// flatSolveCounts reads the flat "gsd.*" SolveMetrics.
func flatSolveCounts(s telemetry.Snapshot) solveCounts {
	c := func(name string) float64 { return s.Counters["gsd."+name] }
	return solveCounts{
		solves: c("solves"), iters: c("iterations"), accepted: c("accepted_moves"),
		cold: c("cold_fallbacks"), windows: c("spec_windows"), evals: c("spec_evals"),
		hits: c("spec_hits"), wasted: c("spec_wasted"), seconds: s.Histograms["gsd.solve_seconds"].Sum,
	}
}

// histDelta is the change in a labeled histogram's count and sum.
func histDelta(after, before telemetry.Snapshot, name string, labels ...string) (count, sum float64) {
	a, _ := after.LabeledHistograms[name].Get(labels...)
	b, _ := before.LabeledHistograms[name].Get(labels...)
	return float64(a.Count) - float64(b.Count), a.Sum - b.Sum
}

// scratch makes a fresh directory for checkpoint files under parent.
func scratch(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "cocad-")
}
