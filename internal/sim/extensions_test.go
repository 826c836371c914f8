package sim

import (
	"math"
	"testing"
)

func TestSummarizeWithTrueUp(t *testing.T) {
	sc := testScenario(10)
	res, err := Run(sc, &fixedPolicy{cfg: Config{Speed: 4, Active: 50}})
	if err != nil {
		t.Fatal(err)
	}
	plain := Summarize(sc, res)
	// Grid 77.3 kWh vs budget 40 → shortfall 37.3.
	if math.Abs(plain.ShortfallKWh-37.3) > 1e-6 {
		t.Fatalf("shortfall = %v, want 37.3", plain.ShortfallKWh)
	}
	if plain.TrueUpUSD != 0 {
		t.Error("plain summary should not price the shortfall")
	}
	trued := SummarizeWithTrueUp(sc, res, 0.02)
	if math.Abs(trued.TrueUpUSD-37.3*0.02) > 1e-9 {
		t.Errorf("true-up = %v", trued.TrueUpUSD)
	}
	wantAvg := plain.AvgHourlyCostUSD + trued.TrueUpUSD/10
	if math.Abs(trued.AvgHourlyCostUSD-wantAvg) > 1e-9 {
		t.Errorf("amortized cost = %v, want %v", trued.AvgHourlyCostUSD, wantAvg)
	}
	// Negative REC price treated as zero.
	free := SummarizeWithTrueUp(sc, res, -1)
	if free.TrueUpUSD != 0 {
		t.Error("negative REC price should be clamped")
	}
}

func TestTrueUpZeroWhenNeutral(t *testing.T) {
	sc := testScenario(10)
	sc.Portfolio.RECsKWh = 1e9 // enormous budget
	res, err := Run(sc, &fixedPolicy{cfg: Config{Speed: 4, Active: 50}})
	if err != nil {
		t.Fatal(err)
	}
	s := SummarizeWithTrueUp(sc, res, 0.02)
	if s.ShortfallKWh != 0 || s.TrueUpUSD != 0 {
		t.Errorf("neutral run has shortfall %v / true-up %v", s.ShortfallKWh, s.TrueUpUSD)
	}
}
