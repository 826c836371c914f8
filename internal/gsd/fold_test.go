package gsd_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/geo"
	"repro/internal/gsd"
	"repro/internal/price"
	"repro/internal/renewable"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// foldProblem is the fold sequence's slot at load fraction load of c's
// capacity.
func foldProblem(c *dcmodel.Cluster, load float64) *dcmodel.SlotProblem {
	return &dcmodel.SlotProblem{Cluster: c, LambdaRPS: load * c.MaxCapacityRPS(), We: 0.08, Wd: 0.01, OnsiteKW: 0.5}
}

// runFoldSequence feeds one registry from a fixed sequence: a gsd.Solver
// with Opts.Metrics set runs a cold slot, a warm slot, a slot whose load the
// warm vector cannot carry (a cold fallback) and a Patience exit; one
// SolveDistributed follows; then a two-site geo.Fleet steps three
// instrumented slots. It returns the gsd.* Stats of every call, in order.
func runFoldSequence(t *testing.T, reg *telemetry.Registry) []gsd.Stats {
	t.Helper()
	m := telemetry.NewSolveMetrics(reg, "gsd")
	c := dcmodel.HeterogeneousCluster(60, 6)
	s := &gsd.Solver{Opts: gsd.Options{Delta: 1e4, MaxIters: 200, Seed: 11, Metrics: m}}
	var stats []gsd.Stats
	for i, load := range []float64{0.1, 0.1, 0.9, 0.5} {
		if i == 3 {
			s.Opts.MaxIters, s.Opts.Patience = 100000, 15
		}
		_, st, err := s.SolveWithStats(foldProblem(c, load))
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		stats = append(stats, st)
	}
	res, err := gsd.SolveDistributed(foldProblem(c, 0.5), gsd.Options{Delta: 1e4, MaxIters: 60, Seed: 5, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	stats = append(stats, res.Stats)

	const slots = 3
	sites := make([]geo.FleetSite, 2)
	for i := range sites {
		sites[i] = geo.FleetSite{
			Name:    fmt.Sprintf("f%03d", i),
			Cluster: dcmodel.HeterogeneousCluster(24, 4),
			Price:   price.CAISOYear(uint64(i + 1)),
			Portfolio: &renewable.Portfolio{
				OnsiteKW:   trace.Constant("r", float64(i), slots),
				OffsiteKWh: trace.Constant("f", 20, slots),
				RECsKWh:    slots * 30,
				Alpha:      1,
			},
		}
	}
	f, err := geo.NewFleet(sites, 0.005, slots, gsd.Options{Delta: 1e4, MaxIters: 40, Seed: 2013})
	if err != nil {
		t.Fatal(err)
	}
	f.Instrument(telemetry.NewFleetMetrics(reg, "fleet"))
	for tt := 0; tt < slots; tt++ {
		out, err := f.Step(f.TotalCapacityRPS()*(0.2+0.25*float64(tt)), 5e5)
		if err != nil {
			t.Fatal(err)
		}
		f.Settle(out)
	}
	return stats
}

// foldReadings flattens the registry's gsd.* and fleet.shard.* counters and
// their histograms' counts (and iteration sums) into one map keyed
// "name" or "name{site}".
func foldReadings(reg *telemetry.Registry) map[string]float64 {
	snap := reg.Snapshot()
	out := map[string]float64{}
	for _, name := range []string{"solves", "iterations", "accepted_moves", "patience_exits", "cold_fallbacks", "dual_rounds"} {
		out["gsd."+name] = snap.Counters["gsd."+name]
		for _, ser := range snap.LabeledCounters["fleet.shard."+name].Series {
			out[fmt.Sprintf("fleet.shard.%s{%s}", name, ser.Values[0])] = ser.Value
		}
	}
	for _, name := range []string{"solve_seconds", "iterations_per_solve"} {
		h := snap.Histograms["gsd."+name]
		out["gsd."+name+".count"] = float64(h.Count)
		for _, ser := range snap.LabeledHistograms["fleet.shard."+name].Series {
			out[fmt.Sprintf("fleet.shard.%s.count{%s}", name, ser.Values[0])] = float64(ser.Hist.Count)
		}
	}
	out["gsd.iterations_per_solve.sum"] = snap.Histograms["gsd.iterations_per_solve"].Sum
	return out
}

// TestSolveStatsFold pins the fold of each call's Stats into
// Options.Metrics: the counters and histogram counts of a fixed sequence
// (cold, warm, cold-fallback and patience-exit Solver slots, a distributed
// solve, and a two-site fleet's shards) equal the readings the same sequence
// gave when the engine wrote its instruments directly, and the gsd.* series
// equal the sums of the Stats the calls returned.
func TestSolveStatsFold(t *testing.T) {
	reg := telemetry.NewRegistry()
	stats := runFoldSequence(t, reg)
	got := foldReadings(reg)
	want := map[string]float64{
		// Recorded from the same sequence before the fold existed.
		"fleet.shard.accepted_moves{f000}": 42, "fleet.shard.accepted_moves{f001}": 52,
		"fleet.shard.cold_fallbacks{f000}": 0, "fleet.shard.cold_fallbacks{f001}": 1,
		"fleet.shard.dual_rounds{f000}": 0, "fleet.shard.dual_rounds{f001}": 0,
		"fleet.shard.iterations{f000}": 120, "fleet.shard.iterations{f001}": 120,
		"fleet.shard.patience_exits{f000}": 0, "fleet.shard.patience_exits{f001}": 0,
		"fleet.shard.solves{f000}": 3, "fleet.shard.solves{f001}": 3,
		"fleet.shard.iterations_per_solve.count{f000}": 3, "fleet.shard.iterations_per_solve.count{f001}": 3,
		"fleet.shard.solve_seconds.count{f000}": 3, "fleet.shard.solve_seconds.count{f001}": 3,
		"gsd.solves": 5, "gsd.iterations": 685, "gsd.accepted_moves": 95,
		"gsd.patience_exits": 1, "gsd.cold_fallbacks": 1, "gsd.dual_rounds": 2208,
		"gsd.solve_seconds.count": 5, "gsd.iterations_per_solve.count": 5, "gsd.iterations_per_solve.sum": 685,
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s = %v, recorded %v", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d readings, recorded %d: %v", len(got), len(want), got)
	}

	var sum gsd.Stats
	var patience, cold int
	for _, st := range stats {
		sum.Iters += st.Iters
		sum.Accepted += st.Accepted
		sum.DualRounds += st.DualRounds
		if st.PatienceExit {
			patience++
		}
		if st.ColdFallback {
			cold++
		}
	}
	for k, v := range map[string]int{
		"gsd.solves": len(stats), "gsd.iterations": sum.Iters, "gsd.accepted_moves": sum.Accepted,
		"gsd.dual_rounds": sum.DualRounds, "gsd.patience_exits": patience, "gsd.cold_fallbacks": cold,
		"gsd.solve_seconds.count": len(stats), "gsd.iterations_per_solve.sum": sum.Iters,
	} {
		if got[k] != float64(v) {
			t.Errorf("%s = %v, the returned Stats sum to %d", k, got[k], v)
		}
	}
	if !stats[2].ColdFallback || !stats[3].PatienceExit || stats[4].DualRounds == 0 {
		t.Errorf("the sequence no longer reaches its cases: %+v", stats)
	}
}
