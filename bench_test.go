// Benchmarks regenerating every figure of the paper's evaluation at reduced
// scale (one bench per table/figure; see DESIGN.md §3 for the experiment
// index), plus micro-benchmarks of the hot paths. Run the full paper-scale
// reproduction with cmd/cocasim instead; these exist to keep the
// regeneration code exercised and to track performance.
package coca

import (
	"fmt"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/gsd"
	"repro/internal/loadbalance"
	"repro/internal/lyapunov"
	"repro/internal/p3"
	"repro/internal/price"
	"repro/internal/renewable"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// benchConfig is the reduced scale used by the figure benches: a 4-week
// horizon over a 1,000-server fleet.
func benchConfig() experiments.Config {
	return experiments.Config{Slots: 4 * 7 * 24, N: 1000, Seed: 2012}
}

func BenchmarkFig1Traces(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2ImpactOfV(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3VsPerfectHP(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4GSD(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Sensitivity(b *testing.B) {
	cfg := benchConfig()
	cfg.Slots = 2 * 7 * 24
	cfg.N = 500
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGSD500Iters200Groups measures the paper's §5.2.3 claim: 500 GSD
// iterations with 200 groups of servers complete in under one second.
func BenchmarkGSD500Iters200Groups(b *testing.B) {
	cluster := dcmodel.PaperCluster(200)
	prob := &dcmodel.SlotProblem{
		Cluster:   cluster,
		LambdaRPS: 0.3 * cluster.MaxCapacityRPS(),
		We:        0.05,
		Wd:        0.02,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gsd.Solve(prob, gsd.Options{Delta: 1e8, MaxIters: 500, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedGSD(b *testing.B) {
	cluster := dcmodel.HeterogeneousCluster(240, 12)
	prob := &dcmodel.SlotProblem{
		Cluster:   cluster,
		LambdaRPS: 0.3 * cluster.MaxCapacityRPS(),
		We:        0.05,
		Wd:        0.02,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gsd.SolveDistributed(prob, gsd.Options{Delta: 1e6, MaxIters: 100, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYearCOCA measures one full simulated year of COCA decisions at
// the paper's 216,000-server scale.
func BenchmarkYearCOCA(b *testing.B) {
	sc, _, err := simtest.Build(simtest.Options{Slots: 8760, N: 216000, Beta: 0.02, Seed: 2012})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewCOCA(COCAFromScenario(sc, ConstantV(2e8, 1, sc.Slots)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(sc, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioBuild measures the §5.1 calibration of the paper-scale
// scenario (the traces and two carbon-unaware reference years) that every
// Fig. 2 and Fig. 3 call repeats, on one and on two calibration workers.
func BenchmarkScenarioBuild(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.Config{Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, _, err := cfg.Scenario(false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPerfectHPYear measures one PerfectHP year on Fig. 3's scenario
// at the paper's scale (216,000 servers × 8,760 slots), the longest job of
// Fig. 3's batch.
func BenchmarkPerfectHPYear(b *testing.B) {
	sc, _, err := experiments.Config{}.Scenario(false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewPerfectHP(sc, 48)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(sc, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHomogeneousP3Solve(b *testing.B) {
	hp := &p3.HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 216000, Gamma: 0.95, PUE: 1,
		LambdaRPS: 6e5, We: 0.07, Wd: 0.02, OnsiteKW: 3000,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hp.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadBalanceSolve200Groups(b *testing.B) {
	cluster := dcmodel.PaperCluster(200)
	speeds := make([]int, 200)
	for i := range speeds {
		speeds[i] = 1 + i%4
	}
	prob := &dcmodel.SlotProblem{
		Cluster:   cluster,
		LambdaRPS: 4e5,
		We:        0.07, Wd: 0.02, OnsiteKW: 2000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loadbalance.Solve(prob, speeds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadSplitProposal measures the GSD inner-loop unit of work on the
// incremental hot path: one single-group speed delta applied to a persistent
// load-split instance, an allocation-free re-solve, and the rollback. This
// is what the engine pays per Gibbs proposal instead of a full
// NewInstance + Solve rebuild. The paper case is the paper's 200-group
// cluster (at most 4 live classes); the site case is one fleet-100k site
// (39 groups of 10 servers over 3 server generations).
func BenchmarkLoadSplitProposal(b *testing.B) {
	site := dcmodel.HeterogeneousCluster(390, 39)
	cases := []struct {
		name           string
		cluster        *dcmodel.Cluster
		lambda, onsite float64
	}{
		{"paper-200", dcmodel.PaperCluster(200), 4e5, 2000},
		{"site-390x39", site, 0.3 * site.MaxCapacityRPS(), 0.5},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			n := len(tc.cluster.Groups)
			speeds := make([]int, n)
			for i := range speeds {
				speeds[i] = 1 + i%4
			}
			prob := &dcmodel.SlotProblem{
				Cluster:   tc.cluster,
				LambdaRPS: tc.lambda,
				We:        0.07, Wd: 0.02, OnsiteKW: tc.onsite,
			}
			in, err := loadbalance.NewInstance(prob, speeds)
			if err != nil {
				b.Fatal(err)
			}
			var sol dcmodel.Solution
			if err := in.SolveInto(&sol); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g := i % n
				if err := in.SetSpeed(g, 1+(speeds[g]+i)%4); err != nil {
					b.Fatal(err)
				}
				if err := in.SolveInto(&sol); err != nil {
					b.Fatal(err)
				}
				in.Revert()
			}
		})
	}
}

// BenchmarkGeoStep measures the geo-federation split hot path — the
// memoized greedy marginal allocation plus the per-site operate pass — at
// two federation sizes. It reports the split's solve economy alongside
// wall time: p3solves/step collapses from ~Chunks·K on the naive loop to
// ~Chunks + K on the memoized path (see BenchmarkGeoStepNaive in
// internal/geo for the reference cost).
func BenchmarkGeoStep(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			sys, err := geo.NewSystem(benchGeoSites(k, 64), 0.005, 64)
			if err != nil {
				b.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			sys.Instrument(telemetry.NewFleetMetrics(reg, "geo"))
			lambda := 0.4 * sys.TotalCapacityRPS()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Step(lambda, 120); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			snap := reg.Snapshot()
			if steps := snap.Counters["geo.steps"]; steps > 0 {
				b.ReportMetric(snap.Counters["geo.p3_solves"]/steps, "p3solves/step")
				b.ReportMetric(snap.Counters["geo.memo_hits"]/steps, "memohits/step")
			}
		})
	}
}

// benchGeoSites builds a deterministic K-site federation for
// BenchmarkGeoStep: staggered price levels and on-site renewables over
// Opteron fleets.
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
			N:      60 + 10*(i%4),
			Gamma:  0.95,
			PUE:    1,
			Price:  p,
			Portfolio: &renewable.Portfolio{
				OnsiteKW:   trace.Constant("r", float64(i%3), slots),
				OffsiteKWh: trace.Constant("f", 2, slots),
				RECsKWh:    float64(slots) * 3,
				Alpha:      1,
			},
		}
	}
	return sites
}

func BenchmarkDeficitQueueUpdate(b *testing.B) {
	q := lyapunov.NewDeficitQueue(1, 100)
	for i := 0; i < b.N; i++ {
		q.Update(float64(i%1000), float64(i%700))
	}
}

// Extension-study benches (see DESIGN.md §3 and EXPERIMENTS.md "beyond the
// paper" section).

func BenchmarkLookaheadSweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.LookaheadSweep(cfg, []int{24, 168}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameResetAblation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FrameResetAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
