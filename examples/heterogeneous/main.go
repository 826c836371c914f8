// Heterogeneous fleet with distributed optimization: run COCA's
// group-level controller over a mixed-generation cluster, solving each
// slot's P3 with GSD. The last slot is re-solved with the distributed GSD
// engine, where every server group draws from its own randomness and
// competes for updates with random timers, and load splits are negotiated
// through dual-decomposition price signals.
//
// Usage:
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	coca "repro"
)

func main() {
	// Three server generations (old / measured Opteron / new) across 12
	// groups, 1,200 servers total.
	cluster := coca.HeterogeneousCluster(1200, 12)
	fmt.Printf("cluster: %d servers in %d groups, peak %.0f kW, capacity %.0f req/s\n\n",
		cluster.TotalServers(), len(cluster.Groups), cluster.PeakPowerKW(), cluster.MaxCapacityRPS())

	const hours = 48
	workload := coca.FIUYear(7)
	prices := coca.CAISOYear(8)
	solar := coca.SolarYear(9)
	offsite := coca.WindYear(10)

	solver := &coca.GSDSolver{Opts: coca.GSDOptions{
		Delta: 1e9, MaxIters: 1500, Seed: 42, Patience: 400,
	}}
	// A deliberately tight per-slot REC allowance (8 kWh) so the deficit
	// queue becomes active and visibly throttles electricity.
	ctrl, err := coca.NewController(cluster, 0.01, coca.ConstantV(5e4, 1, hours), 1, 8, solver)
	if err != nil {
		log.Fatal(err)
	}

	peak := 0.5 * cluster.MaxCapacityRPS()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "hour\tλ (req/s)\tpower (kW)\tgrid (kWh)\tcost ($)\tdeficit q")
	var env coca.SlotEnv
	for t := 0; t < hours; t++ {
		env = coca.SlotEnv{
			LambdaRPS:      workload.Values[t] * peak,
			OnsiteKW:       solar.Values[t] * 30,
			PriceUSDPerKWh: prices.Values[t],
		}
		out, err := ctrl.Step(env)
		if err != nil {
			log.Fatal(err)
		}
		ctrl.Settle(out, offsite.Values[t]*15)
		if t%6 == 0 {
			fmt.Fprintf(w, "%d\t%.0f\t%.1f\t%.1f\t%.2f\t%.1f\n",
				t, env.LambdaRPS, out.Cost.PowerKW, out.Cost.GridKWh,
				out.Cost.TotalUSD, ctrl.Queue())
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	// Demonstrate the distributed engine on the final slot's problem.
	we, wd := coca.P3Weights(5e4, ctrl.Queue(), env.PriceUSDPerKWh, 0.01)
	prob := &coca.SlotProblem{
		Cluster:   cluster,
		LambdaRPS: env.LambdaRPS,
		We:        we, Wd: wd,
		OnsiteKW: env.OnsiteKW,
	}
	seq, err := coca.SolveGSD(prob, coca.GSDOptions{Delta: 1e9, MaxIters: 1200, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	dist, err := coca.SolveGSDDistributed(prob, coca.GSDOptions{Delta: 1e9, MaxIters: 300, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal slot re-solved:\n")
	fmt.Printf("  sequential GSD   objective %.3f (%d iterations)\n", seq.Solution.Value, seq.Stats.Iters)
	fmt.Printf("  distributed GSD  objective %.3f (%d iterations, per-group agents)\n",
		dist.Solution.Value, dist.Stats.Iters)
	fmt.Printf("  gap: %.2f%%\n", 100*(dist.Solution.Value-seq.Solution.Value)/seq.Solution.Value)
}
