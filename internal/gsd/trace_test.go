package gsd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

// recordedSpans exports the tracer's buffer as NDJSON and parses it back,
// exercising the same path a user greps after a -trace-spans run.
func recordedSpans(t *testing.T, tr *span.Tracer) []span.Record {
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

func spansNamed(recs []span.Record, name string) []span.Record {
	var out []span.Record
	for _, r := range recs {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// TestSolveTracedSpans pins the span topology of one sequential run: a
// single gsd.solve root whose gsd.sweep children carry the acceptance
// draw (u, accepted) and the line-7 proposal, with the load-distribution
// evaluation as a gsd.loadsplit grandchild.
func TestSolveTracedSpans(t *testing.T) {
	p := smallProblem(4, 60)
	tr := span.NewTracer()
	res, err := Solve(p, Options{Delta: 1e4, MaxIters: 80, Seed: 9, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	recs := recordedSpans(t, tr)

	solves := spansNamed(recs, "gsd.solve")
	if len(solves) != 1 {
		t.Fatalf("%d gsd.solve spans, want 1", len(solves))
	}
	solve := solves[0]
	if solve.Parent != 0 {
		t.Fatalf("gsd.solve has parent %d, want root", solve.Parent)
	}
	if got := solve.Attrs["iters"]; got != float64(res.Stats.Iters) {
		t.Fatalf("solve iters attr = %v, result %d", got, res.Stats.Iters)
	}
	if got := solve.Attrs["accepted"]; got != float64(res.Stats.Accepted) {
		t.Fatalf("solve accepted attr = %v, result %d", got, res.Stats.Accepted)
	}
	if got := solve.Attrs["best_value"]; got != res.Solution.Value {
		t.Fatalf("solve best_value attr = %v, result %v", got, res.Solution.Value)
	}

	sweeps := spansNamed(recs, "gsd.sweep")
	if len(sweeps) != res.Stats.Iters {
		t.Fatalf("%d gsd.sweep spans, want one per iteration (%d)", len(sweeps), res.Stats.Iters)
	}
	sweepIDs := make(map[uint64]bool, len(sweeps))
	acceptedAttr := 0
	for i, sw := range sweeps {
		if sw.Parent != solve.ID {
			t.Fatalf("sweep %d parented to %d, want solve %d", i, sw.Parent, solve.ID)
		}
		sweepIDs[sw.ID] = true
		if _, ok := sw.Attrs["iter"]; !ok {
			t.Fatalf("sweep %d missing iter attr: %v", i, sw.Attrs)
		}
		if u, ok := sw.Attrs["u"].(float64); ok {
			if u < 0 || u > 1 {
				t.Fatalf("sweep %d acceptance u = %v outside [0,1]", i, u)
			}
			if _, ok := sw.Attrs["accepted"].(bool); !ok {
				t.Fatalf("sweep %d has u but no accepted verdict: %v", i, sw.Attrs)
			}
			if sw.Attrs["accepted"].(bool) {
				acceptedAttr++
			}
		}
		if _, ok := sw.Attrs["proposed_speed"]; !ok {
			t.Fatalf("sweep %d missing line-7 proposal: %v", i, sw.Attrs)
		}
	}
	if acceptedAttr != res.Stats.Accepted {
		t.Fatalf("accepted=true on %d sweeps, result says %d", acceptedAttr, res.Stats.Accepted)
	}

	splits := spansNamed(recs, "gsd.loadsplit")
	if len(splits) == 0 {
		t.Fatal("no gsd.loadsplit spans recorded")
	}
	for i, sp := range splits {
		if !sweepIDs[sp.Parent] {
			t.Fatalf("loadsplit %d parented to %d, not a sweep", i, sp.Parent)
		}
		if _, ok := sp.Attrs["value"]; !ok {
			t.Fatalf("loadsplit %d missing value attr: %v", i, sp.Attrs)
		}
	}
}

// TestSolveTracedMatchesUntraced pins the zero-perturbation contract: the
// span bookkeeping must not touch the RNG, so a traced run reproduces the
// untraced run bit-for-bit.
func TestSolveTracedMatchesUntraced(t *testing.T) {
	p := smallProblem(3, 45)
	base := Options{Delta: 1e4, MaxIters: 300, Seed: 7, RecordHistory: true}
	plain, err := Solve(p, base)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Tracer = span.NewTracer()
	got, err := Solve(p, traced)
	if err != nil {
		t.Fatal(err)
	}
	if got.Solution.Value != plain.Solution.Value ||
		got.Stats.Iters != plain.Stats.Iters || got.Stats.Accepted != plain.Stats.Accepted {
		t.Fatalf("traced run diverged: %v/%d/%d vs %v/%d/%d",
			got.Solution.Value, got.Stats.Iters, got.Stats.Accepted,
			plain.Solution.Value, plain.Stats.Iters, plain.Stats.Accepted)
	}
	for i := range plain.Solution.Speeds {
		if got.Solution.Speeds[i] != plain.Solution.Speeds[i] {
			t.Fatalf("speed %d diverged: %d vs %d", i, got.Solution.Speeds[i], plain.Solution.Speeds[i])
		}
	}
	for i := range plain.History {
		if got.History[i] != plain.History[i] {
			t.Fatalf("history %d diverged: %v vs %v", i, got.History[i], plain.History[i])
		}
	}
	if traced.Tracer.Len() == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

// TestSolverTracedSpans pins the p3.Solver adapter's span: a gsd.solver
// wrapper per call carrying the warm-start verdict, with the run's
// gsd.solve nested inside it.
func TestSolverTracedSpans(t *testing.T) {
	tr := span.NewTracer()
	s := &Solver{Opts: Options{Delta: 1e4, MaxIters: 60, Seed: 3, Tracer: tr}}
	p := smallProblem(3, 40)
	for call := 0; call < 2; call++ {
		if _, err := s.Solve(p); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
	}
	recs := recordedSpans(t, tr)
	solvers := spansNamed(recs, "gsd.solver")
	if len(solvers) != 2 {
		t.Fatalf("%d gsd.solver spans, want 2", len(solvers))
	}
	// First call cold-starts, the second warm-starts from its decision.
	if got := solvers[0].Attrs["warm_start"]; got != false {
		t.Fatalf("first call warm_start = %v, want false", got)
	}
	if got := solvers[1].Attrs["warm_start"]; got != true {
		t.Fatalf("second call warm_start = %v, want true", got)
	}
	solverIDs := map[uint64]bool{solvers[0].ID: true, solvers[1].ID: true}
	solves := spansNamed(recs, "gsd.solve")
	if len(solves) != 2 {
		t.Fatalf("%d gsd.solve spans, want 2", len(solves))
	}
	for i, sv := range solves {
		if !solverIDs[sv.Parent] {
			t.Fatalf("solve %d parented to %d, not a gsd.solver span", i, sv.Parent)
		}
	}
}

// TestSolveDistributedTracedSpans pins the distributed engine's extra
// observability: the solve span is flagged distributed and carries the
// run's Stats, and only a real load split opens a gsd.loadsplit child, which
// reports the prices the dual-decomposition protocol broadcast. An
// iteration whose proposal re-drew its own speed keeps the incumbent's
// split, so it opens no span and adds no round: every span has rounds, the
// spans count Stats.Splits and their rounds sum to Stats.DualRounds, which
// the metrics fold receives.
func TestSolveDistributedTracedSpans(t *testing.T) {
	p := smallProblem(3, 50)
	tr := span.NewTracer()
	m := telemetry.NewSolveMetrics(telemetry.NewRegistry(), "gsd")
	res, err := SolveDistributed(p, Options{Delta: 1e4, MaxIters: 40, Seed: 11, Tracer: tr, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	recs := recordedSpans(t, tr)
	solves := spansNamed(recs, "gsd.solve")
	if len(solves) != 1 {
		t.Fatalf("%d gsd.solve spans, want 1", len(solves))
	}
	if got := solves[0].Attrs["distributed"]; got != true {
		t.Fatalf("solve distributed attr = %v, want true", got)
	}
	st := res.Stats
	for key, want := range map[string]int{"iters": st.Iters, "splits": st.Splits, "dual_rounds": st.DualRounds} {
		if got := solves[0].Attrs[key]; got != float64(want) {
			t.Fatalf("solve %s attr = %v, Stats %d", key, got, want)
		}
	}
	splits := spansNamed(recs, "gsd.loadsplit")
	if len(splits) != st.Splits {
		t.Fatalf("%d gsd.loadsplit spans, Stats.Splits %d", len(splits), st.Splits)
	}
	sum := 0
	for i, sp := range splits {
		rounds, ok := sp.Attrs["dual_rounds"].(float64)
		if !ok || !(rounds > 0) {
			t.Fatalf("loadsplit %d dual_rounds = %v: a span without a split", i, sp.Attrs["dual_rounds"])
		}
		sum += int(rounds)
	}
	if sum != st.DualRounds || float64(sum) != m.DualRounds.Value() {
		t.Fatalf("loadsplit spans sum to %d dual rounds, Stats %d, counter %v", sum, st.DualRounds, m.DualRounds.Value())
	}
	splitOf := map[uint64]bool{}
	for _, sp := range splits {
		splitOf[sp.Parent] = true
	}
	redrawn := 0
	for _, sw := range spansNamed(recs, "gsd.sweep") {
		if _, drew := sw.Attrs["u"]; drew && !splitOf[sw.ID] {
			redrawn++
		}
	}
	if st.Splits == 0 || redrawn == 0 {
		t.Fatalf("%d splits, %d re-drawn speeds: the run no longer exercises both", st.Splits, redrawn)
	}
}

// TestCertifiedRejectSpans pins how a proposal rejected on its lower bound
// shows in the trace: its gsd.sweep span carries certified_reject (with the
// bound and accepted=false) and has no gsd.loadsplit child, every other
// sweep that split keeps its child, and the gsd.solve span counts the
// certified rejections. The traced run still hashes as the untraced one.
func TestCertifiedRejectSpans(t *testing.T) {
	for _, distributed := range []bool{false, true} {
		p := smallProblem(6, 80)
		opts := Options{Delta: scaledDelta(t, p, -1), MaxIters: 400, Seed: 5, RecordHistory: true}
		solve := Solve
		if distributed {
			solve = SolveDistributed
		}
		plain, err := solve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr := span.NewTracer()
		opts.Tracer = tr
		res, err := solve(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if hashRun(res) != hashRun(plain) {
			t.Fatalf("distributed=%v: traced run %s, untraced %s", distributed, hashRun(res), hashRun(plain))
		}
		recs := recordedSpans(t, tr)
		splitOf := map[uint64]bool{}
		for _, sp := range spansNamed(recs, "gsd.loadsplit") {
			splitOf[sp.Parent] = true
		}
		certified := 0
		for i, sw := range spansNamed(recs, "gsd.sweep") {
			if sw.Attrs["certified_reject"] != true {
				if _, ok := sw.Attrs["u"]; ok && !splitOf[sw.ID] && sw.Attrs["g_explore"] != sw.Attrs["g_best"] {
					t.Fatalf("sweep %d drew u without a split or a certified rejection: %v", i, sw.Attrs)
				}
				continue
			}
			certified++
			if splitOf[sw.ID] {
				t.Fatalf("certified sweep %d has a gsd.loadsplit child", i)
			}
			lb, ok := sw.Attrs["g_lower"].(float64)
			if !ok || sw.Attrs["accepted"] != false || !(lb > 0) {
				t.Fatalf("certified sweep %d attrs %v", i, sw.Attrs)
			}
		}
		solves := spansNamed(recs, "gsd.solve")
		if len(solves) != 1 || solves[0].Attrs["certified_rejects"] != float64(certified) {
			t.Fatalf("distributed=%v: solve spans %v, %d certified sweeps", distributed, solves, certified)
		}
		if certified == 0 {
			t.Fatalf("distributed=%v: no certified rejection in %d iterations", distributed, res.Stats.Iters)
		}
	}
}
