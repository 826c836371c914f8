// Command gsdrun runs the GSD distributed optimizer on one P3 instance and
// reports its convergence, reproducing the paper's Fig. 4 snapshots on
// demand.
//
// Usage:
//
//	gsdrun -groups 200 -iters 500                  # paper's §5.2.3 setting
//	gsdrun -distributed -groups 24 -iters 400      # per-group draws, price-protocol splits
//	gsdrun -delta 1e6 -load 0.4 -hetero
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/report"
)

// config holds the flag values validate checks.
type config struct {
	groups, servers, iters          int
	load, delta, price, beta, queue float64
}

// validate rejects flag values that would otherwise be replaced silently:
// PaperCluster maps a group count ≤ 0 to 200, a per-group server count
// below 1 is raised to 1, and an iteration budget ≤ 0 means 200·groups.
func validate(s config) error {
	var servers error
	if s.servers < s.groups {
		servers = fmt.Errorf("-servers must be >= -groups (%d); got %d", s.groups, s.servers)
	}
	load := cliutil.PositiveFloat("-load", s.load)
	if load == nil && s.load > 1 {
		load = fmt.Errorf("-load must be a fraction in (0, 1]; got %v", s.load)
	}
	return cliutil.FirstError(
		cliutil.PositiveCount("-groups", s.groups),
		servers,
		cliutil.PositiveCount("-iters", s.iters),
		load,
		cliutil.NonNegativeFloat("-delta", s.delta),
		cliutil.NonNegativeFloat("-price", s.price),
		cliutil.NonNegativeFloat("-beta", s.beta),
		cliutil.NonNegativeFloat("-q", s.queue),
	)
}

func main() {
	var (
		groups      = flag.Int("groups", 200, "number of server groups (> 0)")
		servers     = flag.Int("servers", 216000, "total servers (>= -groups)")
		loadFrac    = flag.Float64("load", 0.4, "arrival rate as a fraction in (0, 1] of top-speed capacity")
		delta       = flag.Float64("delta", 0, "temperature δ (0 = auto-scale to the objective)")
		iters       = flag.Int("iters", 500, "iterations (> 0)")
		seed        = flag.Uint64("seed", 1, "seed")
		hetero      = flag.Bool("hetero", false, "use a mixed-generation fleet")
		distributed = flag.Bool("distributed", false, "use the distributed engine: per-group random draws, timer competition and price-protocol load splits")
		priceKWh    = flag.Float64("price", 0.05, "electricity price $/kWh")
		beta        = flag.Float64("beta", 0.02, "delay weight β")
		queue       = flag.Float64("q", 0, "carbon-deficit queue length (adds to the electricity weight)")
	)
	flag.Parse()
	if err := validate(config{
		groups: *groups, servers: *servers, iters: *iters,
		load: *loadFrac, delta: *delta, price: *priceKWh, beta: *beta, queue: *queue,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "gsdrun:", err)
		os.Exit(2)
	}

	var cluster *dcmodel.Cluster
	if *hetero {
		cluster = dcmodel.HeterogeneousCluster(*servers, *groups)
	} else {
		cluster = dcmodel.PaperCluster(*groups)
		if *servers != cluster.TotalServers() {
			per := *servers / *groups
			for i := range cluster.Groups {
				cluster.Groups[i].N = per
			}
		}
	}
	prob := &dcmodel.SlotProblem{
		Cluster:   cluster,
		LambdaRPS: *loadFrac * cluster.MaxCapacityRPS(),
		We:        *priceKWh + *queue,
		Wd:        *beta,
		OnsiteKW:  0,
	}
	if err := prob.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	d := *delta
	if d == 0 {
		// Auto-scale: δ ≈ 10·g̃², so δ·Δ(1/g̃) is O(10·Δg̃/g̃), a responsive
		// but non-greedy acceptance.
		probe, err := gsd.Solve(prob, gsd.Options{Delta: 1e15, MaxIters: 50, Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		d = 10 * probe.Solution.Value * probe.Solution.Value
		fmt.Printf("auto δ = %.3g\n", d)
	}

	opts := gsd.Options{Delta: d, MaxIters: *iters, Seed: *seed, RecordHistory: true}
	start := time.Now()
	var (
		res gsd.Result
		err error
	)
	if *distributed {
		res, err = gsd.SolveDistributed(prob, opts)
	} else {
		res, err = gsd.Solve(prob, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	fmt.Printf("cluster: %d servers in %d groups; λ = %.0f req/s\n",
		cluster.TotalServers(), len(cluster.Groups), prob.LambdaRPS)
	fmt.Printf("%d iterations in %v (%.0f iters/s), %d accepted\n",
		res.Iters, elapsed.Round(time.Millisecond),
		float64(res.Iters)/elapsed.Seconds(), res.Accepted)
	fmt.Printf("objective: %.4f (initial %.4f, improvement %.2f%%)\n",
		res.Solution.Value, res.History[0],
		100*(res.History[0]-res.Solution.Value)/res.History[0])
	if err := report.Chart(os.Stdout, "incumbent objective", res.History, 72, 12); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Speed histogram of the final configuration.
	counts := map[int]int{}
	for _, k := range res.Solution.Speeds {
		counts[k]++
	}
	fmt.Println("final speed distribution (groups per level):")
	for k := 0; k <= 8; k++ {
		if c, ok := counts[k]; ok {
			fmt.Printf("  level %d: %d groups\n", k, c)
		}
	}
}
