// Command bench is the repository's benchmark: five closed-loop workloads
// that drive the COCA system only through the public functions of geo,
// gsd, core, serve, reqsim, sim and experiments, timing every call from
// outside.
//
//	bench --workload fleet-100k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer table, folded from the spans a traced run records
// (see layers.go). Either way it checks the results — a golden hash at the
// default seed, worker-count parity, an in-process sequential reference —
// and prints a human-readable table followed by one JSON result line. A
// failed check exits 1. README.md maps every metric to its workload.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// metricDecl is one declared metric, mirrored in BENCHMARK.json.
type metricDecl struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what --trace 0 reports for every workload. The driver gates
// on these, so each must exist and be non-zero on all five workloads;
// latency percentiles and the workload-specific numbers are printed in the
// table only (see README.md).
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"slots_per_s", "1/s", "higher"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer is what --trace 1 reports. A layer a workload does not reach
// reads 0.
var perLayer = []metricDecl{
	{"geo.step_ms", "ms", "lower"},
	{"geo.settle_ms", "ms", "lower"},
	{"geo.step_self_ms", "ms", "lower"},
	{"geo.allocs_per_slot", "count", "lower"},
	{"workpool.busy_frac", "ratio", "higher"},
	{"gsd.solves_per_slot", "count", "lower"},
	{"gsd.iters_per_solve", "count", "lower"},
	{"gsd.accept_frac", "ratio", "higher"},
	{"gsd.cold_fallbacks", "count", "lower"},
	{"gsd.solver_ms", "ms", "lower"},
	{"gsd.solve_self_us", "us", "lower"},
	{"gsd.sweep_self_us", "us", "lower"},
	{"gsd.spec_hit_frac", "ratio", "higher"},
	{"gsd.spec_wasted_frac", "ratio", "lower"},
	{"gsd.spec_windows", "1/solve", "lower"},
	{"loadbalance.split_us", "us", "lower"},
	{"loadbalance.splits_per_iter", "ratio", "lower"},
	{"serve.handler_ms", "ms", "lower"},
	{"serve.rtt_overhead_ms", "ms", "lower"},
	{"serve.step_us", "us", "lower"},
	{"serve.ingest_io_us", "us", "lower"},
	{"serve.ckpt_snapshot_us", "us", "lower"},
	{"serve.ckpt_write_ms", "ms", "lower"},
	{"serve.ckpt_count", "count", "higher"},
	{"serve.ckpt_coalesced", "count", "lower"},
	{"core.step_other_us", "us", "lower"},
	{"telemetry.scrape_ms", "ms", "lower"},
	{"telemetry.scrapes", "count", "higher"},
	{"telemetry.trace_overhead_frac", "ratio", "lower"},
	{"reqsim.replay_ms", "ms", "lower"},
	{"reqsim.events_per_slot", "count", "lower"},
	{"reqsim.ns_per_event", "ns", "lower"},
	{"reqsim.allocs_per_slot", "count", "lower"},
	{"reqsim.model_err_mean", "ratio", "lower"},
	{"sim.decide_us", "us", "lower"},
	{"sim.operate_us", "us", "lower"},
	{"sim.observe_us", "us", "lower"},
	{"sim.slot_self_us", "us", "lower"},
	{"experiments.busy_frac", "ratio", "higher"},
	{"experiments.jobs", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name string
	why  string
	run  func(options) (*report, error)
}

var workloads = []workload{
	{"fleet-100k", "99,840 servers in 256 GSD shards: the GSD chain, load split and water-filling do the work; no HTTP, no reqsim",
		func(o options) (*report, error) { return runFleet(o, fleet100k()) }},
	{"fleet-replay", "a 1,920-server fleet whose bursty request-level replay dominates each slot; a GSD change shows on fleet-100k, a reqsim one here",
		func(o options) (*report, error) { return runFleet(o, fleetReplay()) }},
	{"cocad-decide", "closed-loop HTTP /decide on the paper's 216,000-server cluster; the only workload that runs speculative GSD",
		func(o options) (*report, error) { return runCocad(o, cocadDecide()) }},
	{"cocad-ingest", "a multi-year NDJSON /ingest backlog at cocad's defaults beside checkpoint writes and /metrics scrapes: serving, JSON and telemetry dominate",
		func(o options) (*report, error) { return runCocad(o, cocadIngest()) }},
	{"paper-year", "the paper's Fig. 2 and Fig. 3 at 216,000 servers over 8,760 slots: the homogeneous P3 minimizer no other workload reaches",
		func(o options) (*report, error) { return runPaper(o, paperYear()) }},
}

const (
	// benchWorkers is the fixed fan-out of every workload: the core count
	// of the box the bounds were measured on.
	benchWorkers = 2
	// defaultSeed is the seed the golden hashes were recorded at.
	defaultSeed = 1
	// defaultSetups is how many times each run sets its workload up; the
	// median is reported as setup_s.
	defaultSetups = 3
	// scratchDir holds the checkpoint files cocad-ingest writes, relative
	// to the working directory (the checkout root under run.sh).
	scratchDir = ".bench_build"
)

// options are the per-run settings every workload receives.
type options struct {
	seed    uint64
	seconds float64 // minimum timed-phase length
	trace   bool    // per-layer run instead of end-to-end
	setups  int     // set-ups timed for setup_s
	workDir string  // parent of scratch directories
}

func (o options) duration() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

//go:embed golden.json
var goldenJSON []byte

// golden maps each workload to its result hash at Seed.
type golden struct {
	Seed   uint64            `json:"seed"`
	Hashes map[string]string `json:"hashes"`
}

func loadGolden() (golden, error) {
	var g golden
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	problems          []string // failed correctness checks
	metrics           map[string]float64
	lines             []string // extra table lines: percentiles, hashes, counts
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) notef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check records a failed correctness gate.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// checkGolden compares a workload's result hash with the recorded one at
// the default seed; other seeds and unnamed (test-sized) configs skip it.
func (r *report) checkGolden(o options, name, hash string) {
	r.notef("result hash %s", hash)
	if name == "" {
		return
	}
	g, err := loadGolden()
	if err != nil {
		r.check(false, "golden.json: %v", err)
		return
	}
	if o.seed != g.Seed {
		return
	}
	want, ok := g.Hashes[name]
	r.check(ok, "golden.json has no hash for %s", name)
	r.check(!ok || want == hash, "%s result hash %s, golden %s", name, hash, want)
}

// latency prints a timing distribution by the percentile rule: the median
// and the highest percentile with at least ten samples beyond it, each only
// when the rule allows it, with the sample count.
func (r *report) latency(name string, ms []float64) {
	if v, ok := percentile(ms, 50); ok {
		r.notef("%s_p50 %.4f ms (n=%d)", name, v, len(ms))
	}
	for _, p := range []float64{99, 95, 90} {
		if v, ok := percentile(ms, p); ok {
			r.notef("%s_p%g %.4f ms (n=%d)", name, p, v, len(ms))
			return
		}
	}
	r.notef("%s: %d samples, too few for a tail percentile", name, len(ms))
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the table and the JSON line for the declared metrics. A
// declared end-to-end metric the workload failed to produce is an error; a
// per-layer metric the workload does not reach reads 0.
func (r *report) print(w io.Writer, header string, decls []metricDecl, perLayerRun bool) error {
	res := result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]resultValue, len(decls)),
	}
	fmt.Fprintln(w, header)
	for _, d := range decls {
		v, ok := r.metrics[d.Name]
		if !ok && !perLayerRun {
			return fmt.Errorf("workload produced no %s", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = resultValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, l := range r.lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
	if r.attempted > 0 {
		fmt.Fprintf(w, "  failed_frac %.4g (%d of %d)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command body: 0 on success, 1 on a failed run or check, 2 on
// a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "minimum length of the timed phase in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	switch {
	case wl == nil:
		fmt.Fprintf(stderr, "bench: unknown -workload %q; want one of %s\n", *name, strings.Join(names, ", "))
		return 2
	case *seconds < 0 || math.IsNaN(*seconds):
		fmt.Fprintf(stderr, "bench: -seconds %v must be non-negative\n", *seconds)
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "bench: -trace %d must be 0 or 1\n", *traceFlag)
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, setups: defaultSetups, workDir: scratchDir}
	r, err := wl.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}
	decls := endToEnd
	if o.trace {
		decls = perLayer
	}
	header := fmt.Sprintf("workload %s seed %d trace %d: %d cores, GOMAXPROCS %d, %s",
		wl.name, o.seed, *traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := r.print(stdout, header, decls, o.trace); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}
	if len(r.problems) > 0 || r.failed > 0 {
		return 1
	}
	return 0
}

// medianSetup runs setup n times and returns the last system with the
// median set-up wall time in seconds. Each earlier system is released
// before the next set-up starts.
func medianSetup[T any](n int, setup func() (T, func(), error)) (T, float64, error) {
	var (
		sys     T
		release func()
		secs    []float64
	)
	for i := 0; i < n; i++ {
		if release != nil {
			release()
		}
		start := time.Now()
		s, rel, err := setup()
		if err != nil {
			return sys, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		sys, release = s, rel
	}
	return sys, median(secs), nil
}

// timedLoop calls op until at least minOps calls have run and the phase
// has lasted d. It returns each op's own duration in milliseconds and the
// phase's wall time.
func timedLoop(d time.Duration, minOps int, op func() (time.Duration, error)) ([]float64, time.Duration, error) {
	var ms []float64
	start := time.Now()
	for len(ms) < minOps || time.Since(start) < d {
		dt, err := op()
		if err != nil {
			return ms, time.Since(start), err
		}
		ms = append(ms, millis(dt))
	}
	return ms, time.Since(start), nil
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the nearest-rank p-th percentile of xs, and whether at
// least ten samples lie beyond it — the rule for reporting a percentile.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= 10
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB is HeapAlloc after a full collection, in MB (10^6 bytes). It
// collects twice: objects parked in sync.Pools (net/http's buffers, the
// JSON encoders' states) survive one collection, and how many are parked
// depends on timing, not on the program's live state.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// rtSample is a reading of the runtime's cumulative counters.
type rtSample struct {
	at     time.Time
	allocs uint64  // heap objects allocated since process start
	gcCPU  float64 // CPU seconds spent in the garbage collector
}

// rtReader reads the counters through runtime/metrics, which, unlike
// ReadMemStats, does not stop the world. A reader that is reused allocates
// nothing, so reading around a call does not count against the call.
type rtReader struct{ s [2]metrics.Sample }

func (r *rtReader) read() rtSample {
	r.s[0].Name = "/gc/heap/allocs:objects"
	r.s[1].Name = "/cpu/classes/gc/total:cpu-seconds"
	metrics.Read(r.s[:])
	out := rtSample{at: time.Now()}
	if r.s[0].Value.Kind() == metrics.KindUint64 {
		out.allocs = r.s[0].Value.Uint64()
	}
	if r.s[1].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = r.s[1].Value.Float64()
	}
	return out
}

func readRuntime() rtSample {
	var r rtReader
	return r.read()
}

// gcFrac is the share of the available CPU the collector used between two
// readings.
func gcFrac(a, b rtSample) float64 {
	wall := b.at.Sub(a.at).Seconds() * float64(runtime.GOMAXPROCS(0))
	return ratio(b.gcCPU-a.gcCPU, wall)
}

// fnv64 is an FNV-1a digest folded from little-endian words — the scheme
// of the repository's golden hashes.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h *fnv64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ fnv64(byte(v>>(8*i)))) * 1099511628211
	}
}

func (h *fnv64) floats(vs ...float64) {
	for _, v := range vs {
		h.u64(math.Float64bits(v))
	}
}

func (h *fnv64) str(s string) {
	for i := 0; i < len(s); i++ {
		*h = (*h ^ fnv64(s[i])) * 1099511628211
	}
}

func (h fnv64) String() string { return fmt.Sprintf("fnv1a:%016x", uint64(h)) }

// unit hashes (seed, slot) into [0, 1) with a splitmix64 finalizer, so a
// slot's input is a pure function of its index.
func unit(seed uint64, slot int) float64 {
	x := seed ^ uint64(slot)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
