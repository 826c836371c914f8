package simtest

import (
	"math"
	"slices"
	"testing"

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
