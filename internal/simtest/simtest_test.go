package simtest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/p3"
	"repro/internal/stats"
)

func TestBuildCalibration(t *testing.T) {
	sc, refGrid, err := Build(Options{Slots: 7 * 24, N: 300})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Budget = 0.92 × unaware grid usage, split 40/60 offsite/RECs.
	budget := sc.Portfolio.BudgetKWh(sc.Slots)
	if math.Abs(budget-0.92*refGrid) > 1e-6*refGrid {
		t.Errorf("budget %v, want %v", budget, 0.92*refGrid)
	}
	off := sc.Portfolio.TotalOffsiteKWh(sc.Slots)
	if math.Abs(off-0.4*budget) > 1e-6*budget {
		t.Errorf("offsite %v, want 40%% of %v", off, budget)
	}
	if math.Abs(sc.Portfolio.RECsKWh-0.6*budget) > 1e-6*budget {
		t.Errorf("RECs %v, want 60%% of %v", sc.Portfolio.RECsKWh, budget)
	}
	// On-site supply exists and is intermittent.
	on := sc.Portfolio.OnsiteKW.Values[:sc.Slots]
	if stats.Sum(on) <= 0 {
		t.Error("no on-site supply")
	}
	if slices.Min(on) == slices.Max(on) {
		t.Error("on-site supply is constant — not intermittent")
	}
}

func TestBuildMSROption(t *testing.T) {
	fiu, _, err := Build(Options{Slots: 5 * 24, N: 200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	msr, _, err := Build(Options{Slots: 5 * 24, N: 200, Seed: 9, MSR: true})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range fiu.Workload.Values[:fiu.Slots] {
		if fiu.Workload.Values[i] != msr.Workload.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("MSR option produced the FIU trace")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, ga, err := Build(Options{Slots: 3 * 24, N: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, gb, err := Build(Options{Slots: 3 * 24, N: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ga != gb {
		t.Errorf("reference usage differs: %v vs %v", ga, gb)
	}
	for i := range a.Workload.Values {
		if a.Workload.Values[i] != b.Workload.Values[i] {
			t.Fatal("workloads differ")
		}
	}
}

func TestReferenceUsagePositive(t *testing.T) {
	sc, _, err := Build(Options{Slots: 2 * 24, N: 100})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reference(sc)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ConsumptionKWh <= 0 || ref.GridKWh <= 0 || ref.AvgCostUSD <= 0 {
		t.Errorf("degenerate reference: %+v", ref)
	}
	if ref.GridKWh > ref.ConsumptionKWh {
		t.Errorf("grid %v exceeds consumption %v", ref.GridKWh, ref.ConsumptionKWh)
	}
}

// buildHash is an FNV-1a hash over the calibrated scenarios' traces, RECs
// and reference grid usage, at paper scale and at small FIU and MSR scales.
func buildHash(t *testing.T, workers int) uint64 {
	t.Helper()
	h := fnv.New64a()
	put := func(vs ...float64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, o := range []Options{
		{Slots: 8760, N: 216000, PeakRPS: 1.1e6, Beta: 0.02, BudgetFrac: 0.92, OnsiteFrac: 0.20, Seed: 2012},
		{Slots: 7 * 24, N: 300},
		{Slots: 5 * 24, N: 200, Seed: 9, MSR: true, BudgetFrac: 1.05},
		{Slots: 30, N: 50, Seed: 3, PeakRPS: 100, Beta: 0.5, OnsiteFrac: 0.4},
	} {
		o.Workers = workers
		sc, grid, err := Build(o)
		if err != nil {
			t.Fatal(err)
		}
		put(sc.Workload.Values...)
		put(sc.Price.Values...)
		put(sc.Portfolio.OnsiteKW.Values...)
		put(sc.Portfolio.OffsiteKWh.Values...)
		put(sc.Portfolio.RECsKWh, sc.Portfolio.Alpha, grid)
	}
	return h.Sum64()
}

// TestBuildGoldenAndWorkers pins the calibrated scenarios to the hash of
// the sequential single-pass build they replaced, at every worker count.
func TestBuildGoldenAndWorkers(t *testing.T) {
	const golden uint64 = 0xac9803cbac99fea9
	for _, workers := range []int{0, 1, 2, 3} {
		if got := buildHash(t, workers); got != golden {
			t.Errorf("workers=%d: build hash %#x, want %#x", workers, got, golden)
		}
	}
}

// TestReferenceLowestSlotError checks that a parallel reference fails like
// the sequential one: at the lowest slot whose decision fails, whichever
// chunk that slot falls in.
func TestReferenceLowestSlotError(t *testing.T) {
	for _, bad := range [][]int{{30, 70}, {70}, {0, 99}} {
		sc, _, err := Build(Options{Slots: 100, N: 100, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		sc.Workload = sc.Workload.Copy()
		for _, s := range bad {
			sc.Workload.Values[s] = -1 // a negative load is an invalid P3
		}
		want := fmt.Sprintf("sim: slot %d: %v", bad[0], p3.ErrInvalid)
		for _, workers := range []int{1, 2, 3} {
			_, err := reference(sc, workers)
			if !errors.Is(err, p3.ErrInvalid) || err.Error() != want {
				t.Errorf("bad slots %v, workers=%d: error %v, want %q", bad, workers, err, want)
			}
		}
	}
}

// TestStartSequentialAtOneWorker checks that a one-worker calibration runs
// its job on the calling goroutine rather than starting one.
func TestStartSequentialAtOneWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	during := -1
	start(1, func() { during = runtime.NumGoroutine() })()
	if during < 0 || during > before {
		t.Errorf("start(1) ran its job with %d goroutines live, %d before", during, before)
	}
}

// TestBuildRejectsNegativeSizes checks that a negative size is an error
// naming its field, not a panic in trace generation.
func TestBuildRejectsNegativeSizes(t *testing.T) {
	for _, c := range []struct {
		field string
		o     Options
	}{
		{"Slots", Options{Slots: -5}},
		{"N", Options{N: -1}},
		{"PeakRPS", Options{PeakRPS: -10}},
		{"BudgetFrac", Options{BudgetFrac: -0.5}},
		{"Workers", Options{Workers: -2}},
	} {
		_, _, err := Build(c.o)
		if err == nil || !strings.Contains(err.Error(), "simtest.Options."+c.field) {
			t.Errorf("%s: error %v, want one naming simtest.Options.%s", c.field, err, c.field)
		}
	}
}
