package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/dcmodel"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/gsd"
	"repro/internal/price"
	"repro/internal/renewable"
	"repro/internal/reqsim"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// benchReport is the machine-readable output of -bench-json: per-slot engine
// throughput plus the wall-time speedup of the parallel experiment harness.
// The result hashes fingerprint the *computed numbers* (FNV-64a over the
// float bits), so a baseline comparison can separate "got slower" from
// "computes something different": wall times drift with the host, hashes
// must never change without an intentional arithmetic change.
type benchReport struct {
	Cores      int `json:"cores"` // runtime.NumCPU on the benchmark host
	GOMAXPROCS int `json:"gomaxprocs"`
	Engine     struct {
		Policy     string  `json:"policy"`
		Slots      int     `json:"slots"`
		Runs       int     `json:"runs"`
		NsPerSlot  float64 `json:"ns_per_slot"`
		ResultHash string  `json:"result_hash"` // over every slot record of one run
	} `json:"engine"`
	Sweep struct {
		Driver     string  `json:"driver"`     // the experiment used as workload
		Points     int     `json:"points"`     // independent runs fanned out
		GOMAXPROCS int     `json:"gomaxprocs"` // parallelism actually available to this section
		SeqMs      float64 `json:"seq_ms"`
		ParMs      float64 `json:"par_ms"`
		ParWorkers int     `json:"par_workers"`
		// Speedup is seq/par wall time; 0 when only one worker is available
		// (a "speedup" measured against itself is meaningless and its gate
		// is skipped — see compareBench).
		Speedup    float64 `json:"speedup"`
		ResultHash string  `json:"result_hash"` // over the sweep's result rows
	} `json:"sweep"`
	GSD struct {
		Groups         int     `json:"groups"`
		MaxIters       int     `json:"max_iters"`
		Solves         int     `json:"solves"`
		NsPerSolve     float64 `json:"ns_per_solve"`
		AllocsPerSolve float64 `json:"allocs_per_solve"`
		ResultHash     string  `json:"result_hash"` // over every solve's full solution
	} `json:"gsd"`
	Geo struct {
		Sites           int     `json:"sites"`
		Steps           int     `json:"steps"`
		Workers         int     `json:"workers"`
		GOMAXPROCS      int     `json:"gomaxprocs"`
		NsPerStep       float64 `json:"ns_per_step"`
		P3SolvesPerStep float64 `json:"p3_solves_per_step"` // fresh solves (memoized path)
		MemoHitsPerStep float64 `json:"memo_hits_per_step"` // solves the memo table absorbed
		ResultHash      string  `json:"result_hash"`        // over every step's split + charges
	} `json:"geo"`
	// Reqsim is the request-level discrete-event engine (internal/reqsim):
	// a sharded M/G/1/PS replay at fleet shape. The hash fingerprints the
	// merged Result — counters and float aggregates — so any drift in the
	// event loop, the RNG draw order, or the shard merge shows up as a hash
	// change; ns/event and allocs/run track the steady-state hot path (the
	// engine's contract is zero allocations once slabs are warm).
	Reqsim struct {
		Requests       int64   `json:"requests"` // simulated requests per run
		Events         int64   `json:"events"`   // processed events per run
		Shards         int     `json:"shards"`
		Runs           int     `json:"runs"`
		NsPerEvent     float64 `json:"ns_per_event"`
		EventsPerSec   float64 `json:"events_per_sec"`
		RequestsPerSec float64 `json:"requests_per_sec"`
		AllocsPerRun   float64 `json:"allocs_per_run"`
		ResultHash     string  `json:"result_hash"` // over the merged sharded Result
	} `json:"reqsim"`
	// Scale is the -scale fleet grid (see scale.go); empty when -scale was
	// not given, and compareBench matches its cells by groups×sites.
	Scale []scaleCell `json:"scale,omitempty"`
}

// fnvHash folds float64s into an FNV-64a stream as their little-endian
// IEEE-754 bits — platform-independent for identical computed numbers.
type fnvHash struct{ h hash.Hash64 }

func newFnvHash() *fnvHash { return &fnvHash{h: fnv.New64a()} }

func (f *fnvHash) floats(vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		f.h.Write(buf[:])
	}
}

func (f *fnvHash) sum() string { return fmt.Sprintf("fnv1a:%016x", f.h.Sum64()) }

// engineResultHash fingerprints a run: every charged number of every slot.
func engineResultHash(res *sim.Result) string {
	h := newFnvHash()
	for _, r := range res.Records {
		h.floats(float64(r.Slot), float64(r.Speed), float64(r.Active),
			r.LambdaRPS, r.TotalUSD, r.ElectricityUSD, r.DelayUSD, r.SwitchUSD,
			r.GridKWh, r.EnergyKWh, r.DeficitKWh)
	}
	return h.sum()
}

// fig2ResultHash fingerprints the sweep rows the benchmark computed.
func fig2ResultHash(res experiments.Fig2Result) string {
	h := newFnvHash()
	for _, p := range res.Sweep {
		h.floats(p.V, p.AvgCostUSD, p.AvgDeficitKWh, p.BudgetUsed)
	}
	return h.sum()
}

// runBench measures the step-wise engine and the parallel sweep and writes
// the report as JSON to path. The sweep arms feed pool telemetry into reg
// (nil disables), which main dumps next to the report. A non-empty
// scaleSpec appends the fleet-scale grid section.
func runBench(path string, workers int, reg *telemetry.Registry, scaleSpec string) error {
	var rep benchReport
	rep.Cores = runtime.NumCPU()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	if workers <= 0 {
		workers = rep.GOMAXPROCS
	}

	// Engine throughput: drive the full Observe→Decide→operate→Feedback
	// loop through sim.Run on a calibrated scenario with the cheapest
	// policy, so the measurement is dominated by the engine + Ledger path
	// rather than solver work.
	sc, _, err := simtest.Build(simtest.Options{Slots: 28 * 24, N: 2000})
	if err != nil {
		return err
	}
	const runs = 20
	var lastRes *sim.Result
	start := time.Now()
	for i := 0; i < runs; i++ {
		res, err := sim.Run(sc, baseline.NewUnaware(sc))
		if err != nil {
			return err
		}
		lastRes = res
	}
	elapsed := time.Since(start)
	rep.Engine.Policy = "unaware"
	rep.Engine.Slots = sc.Slots
	rep.Engine.Runs = runs
	rep.Engine.NsPerSlot = float64(elapsed.Nanoseconds()) / float64(runs*sc.Slots)
	rep.Engine.ResultHash = engineResultHash(lastRes)

	// Sweep speedup: the Fig. 2 V-sweep fans its independent simulations
	// over the worker pool; time it sequential vs parallel. Identical
	// configs aside from Workers — the determinism tests guarantee the
	// outputs are byte-identical, so only wall time differs. On a
	// single-worker host the parallel arm would just re-run the sequential
	// one, so it is skipped and the speedup left at 0.
	benchCfg := func(w int) experiments.Config {
		return experiments.Config{Slots: 60 * 24, N: 2000, Seed: 2012, Workers: w, Out: io.Discard, Telemetry: reg}
	}
	seqStart := time.Now()
	seqRes, err := experiments.Fig2(benchCfg(1))
	if err != nil {
		return err
	}
	seqMs := time.Since(seqStart)
	rep.Sweep.Driver = "fig2"
	rep.Sweep.Points = len(seqRes.Sweep) + 1 // V grid + the unaware reference arm
	rep.Sweep.GOMAXPROCS = rep.GOMAXPROCS
	rep.Sweep.SeqMs = float64(seqMs.Microseconds()) / 1e3
	rep.Sweep.ParWorkers = workers
	if workers > 1 {
		parStart := time.Now()
		if _, err := experiments.Fig2(benchCfg(workers)); err != nil {
			return err
		}
		parMs := time.Since(parStart)
		rep.Sweep.ParMs = float64(parMs.Microseconds()) / 1e3
		if parMs > 0 {
			rep.Sweep.Speedup = float64(seqMs) / float64(parMs)
		}
	}
	rep.Sweep.ResultHash = fig2ResultHash(seqRes)

	// GSD solve rate: the per-slot inner loop on the paper's 200-group
	// cluster (the BenchmarkGSD500Iters200Groups workload), seeded runs so
	// the result hash pins the whole chain — any RNG-sequence or float drift
	// in the incremental hot path shows up here as a hash change, while
	// ns/allocs per solve track the cost of one full slot decision.
	cluster := dcmodel.PaperCluster(200)
	prob := &dcmodel.SlotProblem{
		Cluster:   cluster,
		LambdaRPS: 0.3 * cluster.MaxCapacityRPS(),
		We:        0.05, Wd: 0.02,
	}
	const gsdSolves = 10
	gsdOpts := func(seed uint64) gsd.Options {
		return gsd.Options{Delta: 1e8, MaxIters: 500, Seed: seed}
	}
	if _, err := gsd.Solve(prob, gsdOpts(0)); err != nil { // warm-up
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gh := newFnvHash()
	gsdStart := time.Now()
	for seed := 0; seed < gsdSolves; seed++ {
		res, err := gsd.Solve(prob, gsdOpts(uint64(seed)))
		if err != nil {
			return err
		}
		gh.floats(res.Solution.Value, float64(res.Iters), float64(res.Accepted))
		for _, s := range res.Solution.Speeds {
			gh.floats(float64(s))
		}
		gh.floats(res.Solution.Load...)
	}
	gsdElapsed := time.Since(gsdStart)
	runtime.ReadMemStats(&ms1)
	rep.GSD.Groups = len(cluster.Groups)
	rep.GSD.MaxIters = 500
	rep.GSD.Solves = gsdSolves
	rep.GSD.NsPerSolve = float64(gsdElapsed.Nanoseconds()) / gsdSolves
	rep.GSD.AllocsPerSolve = float64(ms1.Mallocs-ms0.Mallocs) / gsdSolves
	rep.GSD.ResultHash = gh.sum()

	// Geo split: the memoized greedy marginal allocation over a 16-site
	// federation, one Step+Settle per slot so the deficit queues feed back
	// into later splits. The hash covers every step's totals and per-site
	// decisions — the memo/parallel path must reproduce the naive split
	// bit-for-bit — and the per-step solve counters come from the geo
	// telemetry the same way the tests read them.
	const geoSites, geoSlots = 16, 96
	gsys, err := geo.NewSystem(benchGeoSites(geoSites, geoSlots), 0.005, geoSlots)
	if err != nil {
		return err
	}
	if err := gsys.SetWorkers(workers); err != nil {
		return err
	}
	geoReg := telemetry.NewRegistry()
	gsys.Instrument(telemetry.NewGeoMetrics(geoReg, "geo"))
	totalCap := gsys.TotalCapacityRPS()
	geoHash := newFnvHash()
	geoStart := time.Now()
	for t := 0; t < geoSlots; t++ {
		lambda := totalCap * (0.35 + 0.3*math.Sin(float64(t)/7))
		out, err := gsys.Step(lambda, 120)
		if err != nil {
			return err
		}
		geoHash.floats(out.TotalCostUSD, out.TotalGridKWh)
		for _, s := range out.Sites {
			geoHash.floats(s.LoadRPS, float64(s.Speed), float64(s.Active), s.CostUSD, s.GridKWh)
		}
		gsys.Settle(out)
	}
	geoElapsed := time.Since(geoStart)
	geoSnap := geoReg.Snapshot()
	rep.Geo.Sites = geoSites
	rep.Geo.Steps = geoSlots
	rep.Geo.Workers = workers
	rep.Geo.GOMAXPROCS = rep.GOMAXPROCS
	rep.Geo.NsPerStep = float64(geoElapsed.Nanoseconds()) / geoSlots
	rep.Geo.P3SolvesPerStep = geoSnap.Counters["geo.p3_solves"] / geoSlots
	rep.Geo.MemoHitsPerStep = geoSnap.Counters["geo.memo_hits"] / geoSlots
	rep.Geo.ResultHash = geoHash.sum()

	// Request-level engine: the sharded M/G/1/PS replay at ρ = 0.7 over 16
	// replica queues, the shape a slot replay fans out per site. Warm the
	// pool first so the timed runs exercise the zero-allocation steady
	// state, then hash the merged result — RunSharded is worker-invariant,
	// so the hash is a function of (Config, shards) alone and stays
	// host-independent.
	reqCfg := reqsim.Config{
		ArrivalRPS: 7, ServiceRPS: 10, Service: reqsim.ExponentialService(1),
		Horizon: 3000, Warmup: 100, Seed: 2012,
	}
	const reqShards, reqRuns = 16, 5
	reqPool := reqsim.NewPool(workers)
	warm, err := reqPool.RunSharded(reqCfg, reqShards)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms0)
	reqStart := time.Now()
	var reqLast reqsim.Result
	for i := 0; i < reqRuns; i++ {
		res, err := reqPool.RunSharded(reqCfg, reqShards)
		if err != nil {
			return err
		}
		reqLast = res
	}
	reqElapsed := time.Since(reqStart)
	runtime.ReadMemStats(&ms1)
	if reqLast != warm {
		return fmt.Errorf("reqsim runs diverged on identical config: %+v vs %+v", reqLast, warm)
	}
	reqHash := newFnvHash()
	reqHash.floats(float64(reqLast.Arrived), float64(reqLast.Admitted), float64(reqLast.Dropped),
		float64(reqLast.Completed), float64(reqLast.Events), float64(reqLast.MaxInSystem),
		reqLast.MeanJobs, reqLast.MeanRespSec, reqLast.UtilFraction,
		reqLast.P50Sec, reqLast.P95Sec, reqLast.P99Sec,
		reqLast.AreaJobsSec, reqLast.MeasuredSec, reqLast.BusySec, reqLast.RespSumSec)
	rep.Reqsim.Requests = int64(reqLast.Arrived)
	rep.Reqsim.Events = reqLast.Events
	rep.Reqsim.Shards = reqShards
	rep.Reqsim.Runs = reqRuns
	rep.Reqsim.NsPerEvent = float64(reqElapsed.Nanoseconds()) / float64(reqRuns*reqLast.Events)
	if sec := reqElapsed.Seconds(); sec > 0 {
		rep.Reqsim.EventsPerSec = float64(reqRuns*reqLast.Events) / sec
		rep.Reqsim.RequestsPerSec = float64(reqRuns*int64(reqLast.Arrived)) / sec
	}
	rep.Reqsim.AllocsPerRun = float64(ms1.Mallocs-ms0.Mallocs) / reqRuns
	rep.Reqsim.ResultHash = reqHash.sum()

	// Fleet-scale grid: whole-site GSD solves fanned over the worker pool,
	// parity-checked against the sequential path before timing.
	if scaleSpec != "" {
		cells, err := runScale(scaleSpec, workers)
		if err != nil {
			return err
		}
		rep.Scale = cells
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench: engine %.0f ns/slot; sweep %.0f ms seq / %.0f ms on %d workers (%.2fx, %d cores); gsd %.1f ms/solve, %.0f allocs/solve; geo %.0f us/step, %.0f p3 solves + %.0f memo hits/step; reqsim %.1f ns/event, %.1fM req/s, %.0f allocs/run -> %s\n",
		rep.Engine.NsPerSlot, rep.Sweep.SeqMs, rep.Sweep.ParMs, workers, rep.Sweep.Speedup, rep.Cores,
		rep.GSD.NsPerSolve/1e6, rep.GSD.AllocsPerSolve,
		rep.Geo.NsPerStep/1e3, rep.Geo.P3SolvesPerStep, rep.Geo.MemoHitsPerStep,
		rep.Reqsim.NsPerEvent, rep.Reqsim.RequestsPerSec/1e6, rep.Reqsim.AllocsPerRun, path)
	return nil
}

// benchGeoSites builds the deterministic K-site federation the geo bench
// steps: staggered price levels and on-site renewables over Opteron fleets,
// matching the recipe of the golden parity tests in internal/geo.
func benchGeoSites(k, slots int) []geo.Site {
	sites := make([]geo.Site, k)
	for i := range sites {
		p := price.CAISOYear(uint64(i + 1))
		scale := 0.4 + 0.15*float64(i%5)
		for j := range p.Values {
			p.Values[j] *= scale
		}
		sites[i] = geo.Site{
			Name:   fmt.Sprintf("s%02d", i),
			Server: dcmodel.Opteron(),
			N:      500 + 100*(i%4),
			Gamma:  0.95,
			PUE:    1,
			Price:  p,
			Portfolio: &renewable.Portfolio{
				OnsiteKW:   trace.Constant("r", float64(i%3), slots),
				OffsiteKWh: trace.Constant("f", 20, slots),
				RECsKWh:    float64(slots) * 30,
				Alpha:      1,
			},
		}
	}
	return sites
}

// benchWallTolerance is the relative wall-time drift the regression gate
// tolerates: benchmark hosts are noisy, so only a slowdown beyond 25% of
// the baseline counts as a regression. Result hashes get no tolerance.
const benchWallTolerance = 0.25

// compareBench loads the fresh report at path and the baseline at basePath
// and fails on a hash mismatch (arithmetic changed) or a wall-time
// regression beyond the tolerance. Faster-than-baseline never fails.
func compareBench(path, basePath string) error {
	load := func(p string) (benchReport, error) {
		var r benchReport
		buf, err := os.ReadFile(p)
		if err != nil {
			return r, err
		}
		return r, json.Unmarshal(buf, &r)
	}
	fresh, err := load(path)
	if err != nil {
		return fmt.Errorf("fresh report: %w", err)
	}
	base, err := load(basePath)
	if err != nil {
		return fmt.Errorf("baseline report: %w", err)
	}
	var problems []string
	if base.Engine.ResultHash != "" && fresh.Engine.ResultHash != base.Engine.ResultHash {
		problems = append(problems, fmt.Sprintf(
			"engine result hash changed: %s -> %s (slot arithmetic differs from baseline)",
			base.Engine.ResultHash, fresh.Engine.ResultHash))
	}
	if base.Sweep.ResultHash != "" && fresh.Sweep.ResultHash != base.Sweep.ResultHash {
		problems = append(problems, fmt.Sprintf(
			"sweep result hash changed: %s -> %s (experiment output differs from baseline)",
			base.Sweep.ResultHash, fresh.Sweep.ResultHash))
	}
	if base.GSD.ResultHash != "" && fresh.GSD.ResultHash != base.GSD.ResultHash {
		problems = append(problems, fmt.Sprintf(
			"gsd result hash changed: %s -> %s (solver RNG sequence or arithmetic differs from baseline)",
			base.GSD.ResultHash, fresh.GSD.ResultHash))
	}
	if base.Geo.ResultHash != "" && fresh.Geo.ResultHash != base.Geo.ResultHash {
		problems = append(problems, fmt.Sprintf(
			"geo result hash changed: %s -> %s (split arithmetic differs from baseline)",
			base.Geo.ResultHash, fresh.Geo.ResultHash))
	}
	slower := func(name string, fresh, base float64) {
		if base > 0 && fresh > base*(1+benchWallTolerance) {
			problems = append(problems, fmt.Sprintf(
				"%s regressed %.0f%%: %.1f vs baseline %.1f (tolerance ±%.0f%%)",
				name, 100*(fresh/base-1), fresh, base, 100*benchWallTolerance))
		}
	}
	slower("engine ns/slot", fresh.Engine.NsPerSlot, base.Engine.NsPerSlot)
	slower("sweep seq_ms", fresh.Sweep.SeqMs, base.Sweep.SeqMs)
	// The parallel-arm gate only means something when both reports actually
	// fanned out: a single-worker run records par_ms=0 / speedup=0 (the arm
	// is skipped), so comparing against it would be noise.
	if fresh.Sweep.ParWorkers > 1 && base.Sweep.ParWorkers > 1 {
		slower("sweep par_ms", fresh.Sweep.ParMs, base.Sweep.ParMs)
	}
	slower("gsd ns/solve", fresh.GSD.NsPerSolve, base.GSD.NsPerSolve)
	slower("gsd allocs/solve", fresh.GSD.AllocsPerSolve, base.GSD.AllocsPerSolve)
	slower("geo ns/step", fresh.Geo.NsPerStep, base.Geo.NsPerStep)
	slower("geo p3 solves/step", fresh.Geo.P3SolvesPerStep, base.Geo.P3SolvesPerStep)
	// Request-level engine: the hash is worker-invariant (function of the
	// config and shard count alone) so it gets the usual zero tolerance; a
	// baseline that predates the section has an empty hash and zero timings
	// and every gate skips.
	if base.Reqsim.ResultHash != "" && fresh.Reqsim.ResultHash != base.Reqsim.ResultHash {
		problems = append(problems, fmt.Sprintf(
			"reqsim result hash changed: %s -> %s (event loop, RNG order or shard merge differs from baseline)",
			base.Reqsim.ResultHash, fresh.Reqsim.ResultHash))
	}
	slower("reqsim ns/event", fresh.Reqsim.NsPerEvent, base.Reqsim.NsPerEvent)
	slower("reqsim allocs/run", fresh.Reqsim.AllocsPerRun, base.Reqsim.AllocsPerRun)
	// Scale cells are matched by their groups×sites grid point; a fresh cell
	// with no baseline counterpart (grid grew, or baseline predates -scale)
	// is informational only. Hashes are host-independent and get no
	// tolerance; throughput gets the usual wall-time band.
	baseCells := make(map[[2]int]scaleCell, len(base.Scale))
	for _, c := range base.Scale {
		baseCells[[2]int{c.Groups, c.Sites}] = c
	}
	for _, c := range fresh.Scale {
		bc, ok := baseCells[[2]int{c.Groups, c.Sites}]
		if !ok {
			continue
		}
		name := fmt.Sprintf("scale %dx%d", c.Groups, c.Sites)
		if bc.ResultHash != "" && c.ResultHash != bc.ResultHash {
			problems = append(problems, fmt.Sprintf(
				"%s result hash changed: %s -> %s (fleet step arithmetic differs from baseline)",
				name, bc.ResultHash, c.ResultHash))
		}
		slower(name+" ns/slot", c.NsPerSlot, bc.NsPerSlot)
		slower(name+" allocs/slot", c.AllocsPerSlot, bc.AllocsPerSlot)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "bench regression: %s\n", p)
		}
		return fmt.Errorf("bench gate: %d problem(s) vs %s", len(problems), basePath)
	}
	fmt.Printf("bench gate: ok vs %s (hashes match, wall times within ±%.0f%%)\n",
		basePath, 100*benchWallTolerance)
	return nil
}
