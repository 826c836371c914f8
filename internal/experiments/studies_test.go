package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"
)

func TestPredictionErrorStudy(t *testing.T) {
	cfg := smallConfig()
	cfg.Out = io.Discard
	cfg.Slots = 6 * 7 * 24
	points, coca, err := PredictionErrorStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("points = %d", len(points))
	}
	// The zero-error oracle is exactly the paper's PerfectHP and must be
	// the cheapest forecaster variant (or within noise of it).
	perfect := points[0]
	if perfect.MAPE != 0 {
		t.Fatalf("first point should be the perfect oracle, MAPE = %v", perfect.MAPE)
	}
	for _, p := range points[1:4] { // noisy oracles with growing error
		if p.MAPE <= 0 {
			t.Errorf("%s: MAPE = %v", p.Forecaster, p.MAPE)
		}
	}
	// Forecast noise moves PerfectHP's cost only within a band: its
	// λ-proportional allocation heuristic, not forecast quality, dominates
	// (noise can even soften pathologically tight caps slightly).
	worst := points[3]
	if ratio := worst.AvgCostUSD / perfect.AvgCostUSD; ratio < 0.9 || ratio > 1.3 {
		t.Errorf("40%%-error PerfectHP at %vx of perfect — outside the plausible band", ratio)
	}
	// COCA needs no forecasts and must beat every PerfectHP variant.
	for _, p := range points {
		if p.CostVsCoca < 1 {
			t.Errorf("%s: PerfectHP (%v) beat COCA (%v)", p.Forecaster, p.AvgCostUSD, coca.AvgHourlyCostUSD)
		}
	}
}

func TestDelayValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Out = io.Discard
	cfg.Slots = 4 * 7 * 24
	points, meanErr, err := DelayValidation(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 {
		t.Fatalf("too few validation points: %d", len(points))
	}
	// The analytic M/G/1/PS model should match the event-driven simulation
	// within a few percent on average.
	if meanErr > 0.10 {
		t.Errorf("mean relative error %v — Eq. (4) model not matching the simulator", meanErr)
	}
	for _, p := range points {
		if p.Analytic <= 0 || p.Simulated <= 0 {
			t.Errorf("degenerate point: %+v", p)
		}
	}
}

func TestGeoStudy(t *testing.T) {
	cfg := smallConfig()
	cfg.Out = io.Discard
	cfg.Slots = 4 * 7 * 24
	res, err := GeoStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SmartCostUSD <= 0 || res.NaiveCostUSD <= 0 {
		t.Fatalf("degenerate costs: %+v", res)
	}
	if res.SmartCostUSD > res.NaiveCostUSD*(1+1e-9) {
		t.Errorf("geo-aware split (%v) worse than proportional (%v)",
			res.SmartCostUSD, res.NaiveCostUSD)
	}
	var shareSum float64
	for _, s := range res.SiteLoadShare {
		if s < 0 || s > 1 {
			t.Fatalf("share %v outside [0,1]", s)
		}
		shareSum += s
	}
	if shareSum < 0.99 || shareSum > 1.01 {
		t.Errorf("shares sum to %v", shareSum)
	}
}

// TestGeoStudyGoldenHash pins the geo study absolutely: two weeks of the
// 600-server three-site federation, the smart (greedy split) and naive
// (capacity-proportional) arms both folded into FNV-1a as little-endian
// IEEE-754 bits. The digest must not depend on the worker count.
func TestGeoStudyGoldenHash(t *testing.T) {
	const want = "fnv1a:cee6219090c85e93"
	for _, workers := range []int{1, 2} {
		res, err := GeoStudy(Config{Slots: 14 * 24, N: 600, Seed: 2012, Workers: workers, Out: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		vs := append([]float64{res.SmartCostUSD, res.NaiveCostUSD,
			res.SmartGridKWh, res.NaiveGridKWh, res.SavingFrac}, res.SiteLoadShare...)
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		if got := fmt.Sprintf("fnv1a:%016x", h.Sum64()); got != want {
			t.Errorf("geo study hash at %d workers = %s, want %s", workers, got, want)
		}
	}
}

// TestTunedStudiesGoldenHash pins the study that runs COCA at the tuned V
// absolutely: two weeks of the 600-server scenario on two workers, every
// result field folded into FNV-1a as little-endian IEEE-754 bits (counts
// as float64), so reusing the grid's run at the tuned V instead of
// simulating the year again must reproduce it bit for bit.
func TestTunedStudiesGoldenHash(t *testing.T) {
	cfg := Config{Slots: 14 * 24, N: 600, Seed: 2012, Workers: 2, Out: io.Discard}
	cases := []struct {
		name, want string
		run        func() ([]float64, error)
	}{
		{"delay-validation", "fnv1a:bbfd44dfb19360aa", func() ([]float64, error) {
			points, mean, err := DelayValidation(cfg, 4)
			vs := []float64{mean}
			for _, p := range points {
				vs = append(vs, float64(p.Slot), p.Analytic, p.Simulated, p.RelErr)
			}
			return vs, err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vs, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf [8]byte
			for _, v := range vs {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
			if got := fmt.Sprintf("fnv1a:%016x", h.Sum64()); got != c.want {
				t.Errorf("%s hash = %s, want %s", c.name, got, c.want)
			}
		})
	}
}
