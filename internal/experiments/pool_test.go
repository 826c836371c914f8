package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

func TestMapIndexedPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 100} {
		out, err := mapIndexed(workers, nil, 17, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapIndexedLowestIndexError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("job %d failed", i) }
	for _, workers := range []int{1, 4} {
		_, err := mapIndexed(workers, nil, 10, func(i int) (int, error) {
			if i == 3 || i == 7 {
				return 0, boom(i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: err = %v, want job 3's error", workers, err)
		}
	}
}

func TestMapIndexedEmptyAndBounds(t *testing.T) {
	out, err := mapIndexed(4, nil, 0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(out) != 0 {
		t.Fatalf("n=0: out=%v err=%v", out, err)
	}
	var calls atomic.Int64
	if _, err := mapIndexed(16, nil, 5, func(i int) (int, error) { calls.Add(1); return i, nil }); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 5 {
		t.Fatalf("fn called %d times, want 5", calls.Load())
	}
}

// poolConfig is a reduced-scale suite configuration for the determinism
// tests: big enough to cross frame boundaries, small enough to run the
// full drivers repeatedly.
func poolConfig(workers int, out *bytes.Buffer) Config {
	return Config{Slots: 7 * 24, N: 500, Seed: 2012, Workers: workers, Out: out}
}

// TestParallelSweepsMatchSequential is the harness-level golden test: the
// drivers must produce identical structured results AND byte-identical
// rendered reports whether they run on one worker or fan out.
func TestParallelSweepsMatchSequential(t *testing.T) {
	type runner func(cfg Config) (any, error)
	drivers := map[string]runner{
		"fig2": func(cfg Config) (any, error) { return Fig2(cfg) },
		"fig3": func(cfg Config) (any, error) { return Fig3(cfg) },
		"portfolio-mix": func(cfg Config) (any, error) {
			shares, costs, err := PortfolioMixStudy(cfg)
			return [2][]float64{shares, costs}, err
		},
		"frame-reset": func(cfg Config) (any, error) { return FrameResetAblation(cfg) },
	}
	for name, run := range drivers {
		t.Run(name, func(t *testing.T) {
			var seqOut, parOut bytes.Buffer
			seq, err := run(poolConfig(1, &seqOut))
			if err != nil {
				t.Fatal(err)
			}
			par, err := run(poolConfig(4, &parOut))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("parallel result diverges from sequential:\nseq %+v\npar %+v", seq, par)
			}
			if !bytes.Equal(seqOut.Bytes(), parOut.Bytes()) {
				t.Fatalf("rendered output differs between Workers=1 and Workers=4:\n--- seq ---\n%s\n--- par ---\n%s",
					seqOut.String(), parOut.String())
			}
		})
	}
}

// TestPoolTelemetry checks that a configured registry observes the pool's
// job progress without changing results: counts add up across sequential
// and parallel runs, per-job wall times are sampled, and errored jobs land
// in the error counter instead of jobs_done.
func TestPoolTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := Config{Workers: 4, Telemetry: reg}
	out, err := mapIndexed(cfg.workers(), cfg.pool(), 9, func(i int) (int, error) { return i, nil })
	if err != nil || len(out) != 9 {
		t.Fatalf("mapIndexed: %v (len %d)", err, len(out))
	}
	pm := cfg.pool()
	if got := pm.JobsStarted.Value(); got != 9 {
		t.Fatalf("jobs started = %v, want 9", got)
	}
	if got := pm.JobsDone.Value(); got != 9 {
		t.Fatalf("jobs done = %v, want 9", got)
	}
	if got := pm.InFlight.Value(); got != 0 {
		t.Fatalf("in-flight after drain = %v, want 0", got)
	}
	if got := pm.JobSeconds.Snapshot().Count; got != 9 {
		t.Fatalf("job wall-time samples = %v, want 9", got)
	}

	boom := errors.New("boom")
	if _, err := mapIndexed(cfg.workers(), cfg.pool(), 5, func(i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := pm.JobErrors.Value(); got != 1 {
		t.Fatalf("job errors = %v, want 1", got)
	}
	if got := pm.JobsDone.Value(); got != 9+4 {
		t.Fatalf("jobs done after error run = %v, want 13", got)
	}
}
