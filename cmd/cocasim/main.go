// Command cocasim regenerates the paper's evaluation figures (see
// DESIGN.md §3 for the experiment index and EXPERIMENTS.md for measured
// results).
//
// Usage:
//
//	cocasim -exp all                 # every figure at paper scale (~minutes)
//	cocasim -exp fig2 -n 2000        # one figure at reduced fleet scale
//	cocasim -exp fig3 -slots 2016    # twelve weeks instead of a year
//
// Experiments: fig1 (workload traces), fig2 (impact of V), fig3 (COCA vs
// PerfectHP), fig4 (GSD execution), fig5 (sensitivity studies), mix
// (off-site/REC portfolio mix study), capping (§2.2 energy-cap variant),
// lookahead (P2 window sweep + Theorem 2 bounds), reset (frame-reset
// ablation), tariff (§2.1 nonlinear pricing), batch (green batch
// scheduling on spare capacity), predict (PerfectHP under imperfect
// forecasts), delay (Eq. 4 vs the event-driven M/G/1/PS simulator), geo
// (multi-site geographic load balancing).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/telemetry/logf"
	"repro/internal/telemetry/span"
)

// logger carries the process's structured stderr log (logf records, not
// prose): experiment results stay on stdout, operational events land
// here. Set once in main before any runner can log.
var logger *slog.Logger

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: fig1|fig2|fig3|fig4|fig5|mix|capping|lookahead|reset|tariff|batch|predict|delay|geo|all")
		slots   = flag.Int("slots", 0, "horizon in hours (default: 8760, one year)")
		n       = flag.Int("n", 0, "fleet size (default: 216000, the paper's deployment)")
		beta    = flag.Float64("beta", 0, "delay weight β (default: 0.02)")
		budget  = flag.Float64("budget", 0, "carbon budget as fraction of unaware usage (default: 0.92)")
		seed    = flag.Uint64("seed", 0, "master seed (default: 2012)")
		csvDir  = flag.String("csvdir", "", "write figure data as CSV files into this directory (fig2/fig3 series)")
		workers = flag.Int("workers", 0, "worker pool for independent runs (0: all cores, 1: sequential; results are identical either way)")
		bench   = flag.String("bench-json", "", "run the engine/sweep benchmark and write the JSON report to this path, then exit")
		scale   = flag.String("scale", "", "fleet-scale bench grid as GROUPSxSITES cells (e.g. 200x16,10000x256): parity-check and time geo.Fleet steps; with -bench-json the cells land in the report, alone they print and exit")

		stream      = flag.String("stream", "", "single-run mode: stream one NDJSON record per settled slot to this path (- for stdout)")
		policy      = flag.String("policy", "coca", "policy for -stream single-run mode: coca|unaware")
		vParam      = flag.Float64("v", 240, "COCA cost-carbon parameter V for -stream (the paper's neutral point is ~240)")
		metricsAddr = flag.String("metrics-addr", "", "serve live telemetry on this address (/metrics JSON, /spans, /debug/vars expvar, /debug/pprof)")
		telemJSON   = flag.String("telemetry-json", "", "write the final telemetry snapshot as JSON to this path")

		reqsim        = flag.Int("reqsim", 0, "with -stream: replay each settled slot at request granularity with ~this many simulated requests (0: off); prints empirical-vs-analytic delay error and exports per-slot percentiles")
		reqsimService = flag.String("reqsim-service", "exp", "service-time distribution for -reqsim replays: exp|det|hyperexp|pareto (pareto is the heavy-tailed arm)")
		reqsimEvery   = flag.Int("reqsim-every", 1, "replay every kth settled slot (sampling knob for long -reqsim runs)")
		reqsimBursty  = flag.Bool("reqsim-bursty", false, "replace Poisson arrivals with a bursty on/off process in -reqsim replays (the arm where Eq. 4 is knowably wrong)")

		traceOut     = flag.String("trace-out", "", "record execution spans and write them as Chrome trace-event JSON to this path (open in ui.perfetto.dev or chrome://tracing)")
		traceSpans   = flag.String("trace-spans", "", "record execution spans and write them as NDJSON (one span per line) to this path")
		benchAgainst = flag.String("bench-against", "", "with -bench-json: compare the fresh report against this baseline (hard equality on result hashes, ±25% wall-time tolerance) and exit non-zero on regression")
		logFormat    = flag.String("log-format", logf.FormatText, "structured log format for stderr: text or json")
	)
	flag.Parse()

	var err error
	logger, err = logf.New(os.Stderr, *logFormat, logf.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}

	// Reject nonsensical values up front: a negative -workers used to slip
	// through the pool's `> 0` check and silently mean "all cores".
	if err := cliutil.FirstError(
		cliutil.Workers(*workers),
		cliutil.NonNegativeCount("-slots", *slots),
		cliutil.NonNegativeCount("-n", *n),
		cliutil.NonNegativeFloat("-beta", *beta),
		cliutil.NonNegativeFloat("-budget", *budget),
		cliutil.PositiveFloat("-v", *vParam),
		cliutil.NonNegativeCount("-reqsim", *reqsim),
		cliutil.PositiveCount("-reqsim-every", *reqsimEvery),
		cliutil.OneOf("-reqsim-service", *reqsimService, "exp", "det", "hyperexp", "pareto"),
	); err != nil {
		logger.Error("bad flags", "error", err)
		os.Exit(2)
	}

	reg := telemetry.NewRegistry()
	var tracer *span.Tracer
	if *traceOut != "" || *traceSpans != "" {
		tracer = span.NewTracer()
	}
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		srv, addr, err := telemetry.Serve(*metricsAddr, reg, tracer)
		if err != nil {
			logger.Error("metrics server failed", "error", err)
			os.Exit(1)
		}
		metricsSrv = srv
		logger.Info("telemetry listening", "addr", "http://"+addr.String(),
			"endpoints", "/metrics /metrics.json /spans /debug/vars /debug/pprof")
	}
	// finish runs every end-of-run duty: snapshot telemetry, export the
	// recorded spans, and shut the metrics server down so its listener is
	// released before the process lingers (tests and library embedders
	// call the same sequence; os.Exit paths skip it deliberately).
	finish := func() {
		if *telemJSON != "" {
			if err := writeTelemetry(*telemJSON, reg); err != nil {
				logger.Error("telemetry snapshot failed", "error", err)
				os.Exit(1)
			}
		}
		if err := writeTraces(tracer, *traceOut, *traceSpans); err != nil {
			logger.Error("trace export failed", "error", err)
			os.Exit(1)
		}
		if metricsSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := metricsSrv.Shutdown(ctx); err != nil {
				metricsSrv.Close()
			}
		}
	}

	if *bench != "" {
		// The benchmark's telemetry summary lands next to the report.
		if *telemJSON == "" {
			*telemJSON = strings.TrimSuffix(*bench, ".json") + ".telemetry.json"
		}
		if err := runBench(*bench, *workers, reg, *scale); err != nil {
			logger.Error("bench failed", "error", err)
			os.Exit(1)
		}
		finish()
		if *benchAgainst != "" {
			if err := compareBench(*bench, *benchAgainst); err != nil {
				logger.Error("bench regression", "error", err)
				os.Exit(1)
			}
		}
		return
	}

	if *scale != "" {
		// Standalone -scale: run the fleet grid and print the throughput
		// lines without the full benchmark report.
		if _, err := runScale(*scale, *workers); err != nil {
			logger.Error("scale bench failed", "error", err)
			os.Exit(1)
		}
		finish()
		return
	}

	cfg := experiments.Config{
		Slots:     *slots,
		N:         *n,
		Beta:      *beta,
		Budget:    *budget,
		Seed:      *seed,
		Workers:   *workers,
		Out:       os.Stdout,
		Telemetry: reg,
		Tracer:    tracer,
	}

	if *stream != "" {
		rq := reqsimFlags{requests: *reqsim, service: *reqsimService, every: *reqsimEvery, bursty: *reqsimBursty}
		if err := runSingle(cfg, *policy, *vParam, *stream, rq, reg, tracer); err != nil {
			logger.Error("run failed", "error", err)
			os.Exit(1)
		}
		finish()
		return
	}

	runners := map[string]func() error{
		"fig1": func() error { _, err := experiments.Fig1(cfg); return err },
		"fig2": func() error {
			res, err := experiments.Fig2(cfg)
			if err != nil {
				return err
			}
			return writeFig2CSV(*csvDir, res)
		},
		"fig3": func() error {
			res, err := experiments.Fig3(cfg)
			if err != nil {
				return err
			}
			return writeFig3CSV(*csvDir, res)
		},
		"fig4": func() error { _, err := experiments.Fig4(cfg); return err },
		"fig5": func() error { _, err := experiments.Fig5(cfg); return err },
		"mix": func() error {
			shares, costs, err := experiments.PortfolioMixStudy(cfg)
			if err != nil {
				return err
			}
			fmt.Println("== Portfolio mix study (§5.2.4): off-site share vs normalized cost ==")
			for i := range shares {
				fmt.Printf("  offsite %.0f%% / RECs %.0f%%: %.4f\n",
					shares[i]*100, (1-shares[i])*100, costs[i])
			}
			return nil
		},
		"geo":       func() error { _, err := experiments.GeoStudy(cfg); return err },
		"predict":   func() error { _, _, err := experiments.PredictionErrorStudy(cfg); return err },
		"delay":     func() error { _, _, err := experiments.DelayValidation(cfg, 12); return err },
		"capping":   func() error { _, err := experiments.Capping(cfg); return err },
		"lookahead": func() error { _, _, err := experiments.LookaheadSweep(cfg, nil); return err },
		"reset":     func() error { _, err := experiments.FrameResetAblation(cfg); return err },
		"tariff":    func() error { _, err := experiments.TariffStudy(cfg); return err },
		"batch":     func() error { _, err := experiments.GreenBatch(cfg); return err },
	}
	order := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "mix",
		"capping", "lookahead", "reset", "tariff", "batch",
		"predict", "delay", "geo",
	}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				logger.Error("unknown experiment", "name", name,
					"choices", strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}

	for _, name := range selected {
		fmt.Printf("\n################ %s ################\n", name)
		start := time.Now()
		if err := runners[name](); err != nil {
			logger.Error("experiment failed", "name", name, "error", err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	finish()
}

// writeFig2CSV exports the Fig. 2 sweep and the varying-V moving averages.
func writeFig2CSV(dir string, res experiments.Fig2Result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sweep, err := os.Create(filepath.Join(dir, "fig2_sweep.csv"))
	if err != nil {
		return err
	}
	defer sweep.Close()
	t := report.NewTable("", "V", "avg_hourly_cost_usd", "avg_hourly_deficit_kwh", "grid_over_budget")
	for _, p := range res.Sweep {
		t.AddRow(p.V, p.AvgCostUSD, p.AvgDeficitKWh, p.BudgetUsed)
	}
	if err := t.WriteCSV(sweep); err != nil {
		return err
	}
	if len(res.MovingAvgCost) == 0 {
		return nil
	}
	series, err := os.Create(filepath.Join(dir, "fig2_varying_v.csv"))
	if err != nil {
		return err
	}
	defer series.Close()
	idx := make([]float64, len(res.MovingAvgCost))
	for i := range idx {
		idx[i] = float64(i)
	}
	return report.SeriesCSV(series, idx, "hour", map[string][]float64{
		"moving_avg_cost_usd":    res.MovingAvgCost,
		"moving_avg_deficit_kwh": res.MovingAvgDeficit,
	}, []string{"moving_avg_cost_usd", "moving_avg_deficit_kwh"})
}

// writeFig3CSV exports the Fig. 3 running averages.
func writeFig3CSV(dir string, res experiments.Fig3Result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "fig3_running_averages.csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	idx := make([]float64, len(res.RunningCostCoca))
	for i := range idx {
		idx[i] = float64(i)
	}
	return report.SeriesCSV(f, idx, "hour", map[string][]float64{
		"coca_cost":    res.RunningCostCoca,
		"php_cost":     res.RunningCostPHP,
		"coca_deficit": res.RunningDeficitCoca,
		"php_deficit":  res.RunningDeficitPHP,
	}, []string{"coca_cost", "php_cost", "coca_deficit", "php_deficit"})
}
