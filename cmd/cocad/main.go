// Command cocad runs the COCA controller as a long-running control plane:
// a daemon that ingests streaming slot observations over HTTP, answers
// each slot with the controller's decision, and checkpoints its full state
// (slot cursor, deficit queue, GSD warm starts, cumulative accounting and
// the FNV-1a hash chain) so a kill and restart with -restore continues the
// run bit for bit.
//
// Usage:
//
//	cocad -addr 127.0.0.1:7642 -checkpoint run.ckpt.json
//	cocad -restore run.ckpt.json            # resume a checkpointed run
//	cocad -emit-slots 100 | curl -sN --json @- $ADDR/ingest
//
// Endpoints (one listener): POST /decide, POST /ingest (NDJSON stream),
// GET /state, GET /checkpoint, GET /healthz (liveness), GET /readyz
// (restore complete, checkpoint writer healthy, settle-age bound), plus
// /metrics (Prometheus text), /metrics.json, /spans, /debug/vars and —
// unless -no-pprof — /debug/pprof from the telemetry layer. Logs are
// structured records (-log-format text|json) on stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/lyapunov"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/telemetry/logf"
	"repro/internal/telemetry/span"
)

// errUsage marks flag/validation failures so main exits 2, not 1.
var errUsage = errors.New("usage error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the daemon body, factored out of main so tests can drive a full
// start → ingest → kill → restore cycle in-process. ready, when non-nil,
// receives the bound listen address once the server is up.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready func(addr string)) error {
	fs := flag.NewFlagSet("cocad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:7642", "listen address for the control plane")
		ckptPath   = fs.String("checkpoint", "cocad.ckpt.json", "checkpoint file path (written periodically and on shutdown; empty disables)")
		ckptEvery  = fs.Int("checkpoint-every", 25, "write a checkpoint every N settled slots (0 disables the periodic writer)")
		restore    = fs.String("restore", "", "restore state from this checkpoint file before serving")
		n          = fs.Int("n", 60, "total servers in the cluster")
		groups     = fs.Int("groups", 6, "server groups (heterogeneous types cycle across groups)")
		beta       = fs.Float64("beta", 0.02, "delay weight β")
		vParam     = fs.Float64("v", 5e5, "Lyapunov cost-carbon parameter V")
		frames     = fs.Int("frames", 365, "frames in the V schedule (horizon = frames × frame slots)")
		frameSlots = fs.Int("frame", 24, "slots per frame")
		alpha      = fs.Float64("alpha", 1.0, "carbon-deficit step size α")
		rec        = fs.Float64("rec", 2.0, "REC budget per slot in kWh")
		slotHours  = fs.Float64("slot-hours", 0, "slot duration in hours (0: the paper default)")
		switchCost = fs.Float64("switch-cost", 0.231, "switching cost in kWh per toggled server")
		seed       = fs.Uint64("seed", 2012, "seed for the GSD solver and -emit-slots stream")
		iters      = fs.Int("iters", 150, "GSD iteration budget per slot")
		delta      = fs.Float64("delta", 1e4, "GSD temperature δ")
		patience   = fs.Int("patience", 0, "GSD early-stop patience (0 disables)")
		emitSlots  = fs.Int("emit-slots", 0, "emit this many synthetic SlotInput NDJSON records to stdout and exit")
		emitStart  = fs.Int("emit-start", 0, "absolute slot index the emitted stream starts at")
		site       = fs.String("site", "default", "site label stamped on this daemon's metrics series")
		noPprof    = fs.Bool("no-pprof", false, "do not mount /debug/pprof on the control-plane listener")
		logFormat  = fs.String("log-format", logf.FormatText, "structured log format: text or json")
		maxSettle  = fs.Duration("ready-max-settle-age", 0, "fail /readyz when the last settled slot is older than this (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if err := cliutil.FirstError(
		cliutil.PositiveCount("-n", *n),
		cliutil.PositiveCount("-groups", *groups),
		cliutil.PositiveCount("-frames", *frames),
		cliutil.PositiveCount("-frame", *frameSlots),
		cliutil.PositiveCount("-iters", *iters),
		cliutil.NonNegativeCount("-checkpoint-every", *ckptEvery),
		cliutil.NonNegativeCount("-emit-slots", *emitSlots),
		cliutil.NonNegativeCount("-emit-start", *emitStart),
		cliutil.NonNegativeCount("-patience", *patience),
		cliutil.PositiveFloat("-v", *vParam),
		cliutil.PositiveFloat("-alpha", *alpha),
		cliutil.PositiveFloat("-delta", *delta),
		cliutil.NonNegativeFloat("-beta", *beta),
		cliutil.NonNegativeFloat("-rec", *rec),
		cliutil.NonNegativeFloat("-slot-hours", *slotHours),
		cliutil.NonNegativeFloat("-switch-cost", *switchCost),
	); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if *groups > *n {
		return fmt.Errorf("%w: -groups %d exceeds -n %d servers", errUsage, *groups, *n)
	}
	if *maxSettle < 0 {
		return fmt.Errorf("%w: -ready-max-settle-age %v is negative", errUsage, *maxSettle)
	}
	log, err := logf.New(stderr, *logFormat, logf.Options{})
	if err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	cluster := dcmodel.HeterogeneousCluster(*n, *groups)

	if *emitSlots > 0 {
		return emit(stdout, cluster, *seed, *emitStart, *emitSlots)
	}

	// Startup config dump: one record carrying every effective flag value,
	// so a log line suffices to reproduce the run.
	var cfg []any
	fs.VisitAll(func(f *flag.Flag) {
		cfg = append(cfg, f.Name, f.Value.String())
	})
	log.Info("config", cfg...)

	ctrl, err := core.NewController(cluster, *beta, lyapunov.ConstantV(*vParam, *frames, *frameSlots),
		*alpha, *rec, &gsd.Solver{Opts: gsd.Options{
			Delta: *delta, MaxIters: *iters, Patience: *patience, Seed: *seed,
		}})
	if err != nil {
		return err
	}
	ctrl.SlotHours = *slotHours
	ctrl.SwitchCostKWh = *switchCost
	svc := serve.New(ctrl)

	reg := telemetry.NewRegistry()
	svc.Instrument(serve.NewSiteMetrics(reg, "cocad", *site))
	telemetry.NewRuntimeMetrics(reg, "runtime")
	if !telemetry.PublishExpvar(reg) {
		log.Warn("expvar name already owned by an earlier registry; /debug/vars will not carry this run")
	}
	tracer := span.NewTracer()

	// Readiness: restore must have finished, the checkpoint writer must
	// not be failing, and (when bounded) the feed must not have stalled.
	var restoreDone, ckptErr atomic.Value
	restoreDone.Store(*restore == "")
	ckptErr.Store("")
	readiness := serve.NewReadiness()
	readiness.Add("restore", func() error {
		if !restoreDone.Load().(bool) {
			return errors.New("checkpoint restore still pending")
		}
		return nil
	})
	readiness.Add("checkpoint", func() error {
		if msg := ckptErr.Load().(string); msg != "" {
			return errors.New(msg)
		}
		return nil
	})
	if *maxSettle > 0 {
		readiness.Add("settle-age", func() error {
			if age, ok := svc.SettleAge(); ok && age > *maxSettle {
				return fmt.Errorf("last slot settled %s ago (bound %s)", age.Round(time.Millisecond), *maxSettle)
			}
			return nil
		})
	}

	if *restore != "" {
		if err := restoreCheckpoint(*restore, svc); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		restoreDone.Store(true)
		log.Info("restored", "path", *restore, "slot", svc.State().Slot, "hash", svc.State().Hash)
	}

	// The periodic checkpointer runs off the ingest path: the on-settle
	// hook (called under the service lock) only nudges a channel, and a
	// writer goroutine snapshots and persists at its own pace.
	writerCtx, stopWriter := context.WithCancel(ctx)
	defer stopWriter()
	var wake chan struct{}
	writerDone := make(chan struct{})
	if *ckptPath != "" && *ckptEvery > 0 {
		wake = make(chan struct{}, 1)
		svc.SetOnSettle(func(slot int) {
			if slot%*ckptEvery == 0 {
				select {
				case wake <- struct{}{}:
				default:
				}
			}
		})
	}
	go func() {
		defer close(writerDone)
		if wake == nil {
			return
		}
		for {
			select {
			case <-writerCtx.Done():
				return
			case <-wake:
				if err := writeCheckpoint(*ckptPath, svc); err != nil {
					ckptErr.Store(err.Error())
					log.Error("checkpoint write failed", "path", *ckptPath, "error", err)
				} else {
					ckptErr.Store("")
				}
			}
		}
	}()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.HandlerWith(reg, tracer, serve.HandlerOpts{
		Telemetry: telemetry.RegisterOpts{NoPprof: *noPprof},
		Log:       log.With(slog.String("site", *site)),
		Ready:     readiness,
	})}
	log.Info("listening", "addr", "http://"+ln.Addr().String(), "site", *site,
		"endpoints", "/decide /ingest /state /checkpoint /healthz /readyz /metrics")
	if ready != nil {
		ready(ln.Addr().String())
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		stopWriter()
		<-writerDone
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, give in-flight streams a grace
	// window, then write the final checkpoint once no step can race it.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	<-writerDone
	if *ckptPath != "" {
		if err := writeCheckpoint(*ckptPath, svc); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		log.Info("checkpoint written", "path", *ckptPath,
			"slot", svc.State().Slot, "hash", svc.State().Hash)
	}
	return nil
}

// emit streams deterministic synthetic observations scaled to the cluster:
// demand peaks at half the cluster's capacity, with modest on-site and
// off-site feeds. The stream is position-addressable, so two invocations
// covering [0,50) and [50,100) concatenate to the [0,100) stream.
func emit(w io.Writer, cluster *dcmodel.Cluster, seed uint64, start, count int) error {
	servers := 0
	for _, g := range cluster.Groups {
		servers += g.N
	}
	peak := 0.5 * cluster.Gamma * cluster.MaxCapacityRPS()
	onsiteKW := 0.02 * float64(servers)
	offsiteMean := 0.01 * float64(servers)
	enc := json.NewEncoder(w)
	for _, in := range serve.SyntheticSlots(seed, start, count, peak, onsiteKW, offsiteMean) {
		if err := enc.Encode(in); err != nil {
			return err
		}
	}
	return nil
}

// restoreCheckpoint loads the checkpoint file at path into svc.
func restoreCheckpoint(path string, svc *serve.Service) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ck serve.Checkpoint
	if err := json.Unmarshal(blob, &ck); err != nil {
		return fmt.Errorf("malformed checkpoint %s: %w", path, err)
	}
	return svc.RestoreFrom(ck)
}

// writeCheckpoint persists the service snapshot atomically: write a temp
// file in the target directory, fsync, rename, fsync the directory. A crash
// mid-write leaves the previous checkpoint intact, and once it returns nil
// the rename itself is durable.
func writeCheckpoint(path string, svc *serve.Service) error {
	ck, err := svc.Checkpoint()
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
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
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a rename into it survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}
