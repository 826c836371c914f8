package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// smallConfig keeps experiment tests fast: a 12-week horizon with a
// 2000-server fleet (84 days divides into 4 frames for Fig. 2's quarterly
// schedule).
func smallConfig() Config {
	return Config{
		Slots: 84 * 24,
		N:     2000,
		Seed:  2012,
	}
}

// TestNegativeWorkersRejected pins the library-side rule: a negative
// Workers is an explicit error at every driver entry point, not a silent
// all-cores fallback (which is what workers()'s `> 0` check used to do).
func TestNegativeWorkersRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = -2
	if _, err := Fig2(cfg); err == nil || !strings.Contains(err.Error(), "experiments.Config.Workers") {
		t.Fatalf("Fig2 with Workers=-2 = %v, want named cliutil error", err)
	}
	if _, _, err := cfg.Scenario(false); err == nil || !strings.Contains(err.Error(), "experiments.Config.Workers") {
		t.Fatalf("Scenario with Workers=-2 = %v, want named cliutil error", err)
	}
}

func TestDefaultsMatchPaperSetup(t *testing.T) {
	d := Default()
	if d.N != 216000 || d.Slots != 8760 || d.PeakRPS != 1.1e6 || d.Budget != 0.92 {
		t.Errorf("defaults drifted from §5.1: %+v", d)
	}
}

func TestConfigFillScalesPeak(t *testing.T) {
	c := Config{N: 21600}
	if err := c.fill(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.PeakRPS-1.1e5) > 1e-6 {
		t.Errorf("scaled peak = %v, want 1.1e5", c.PeakRPS)
	}
	if len(c.VGrid) == 0 {
		t.Error("no default V grid")
	}
}

// TestVGridValidation pins fill()'s V-grid rule: nil selects the default
// grid, while an empty grid or a V that is not finite and positive is an
// explicit error at every experiment entry point instead of a panic or a
// silent nonsense sweep.
func TestVGridValidation(t *testing.T) {
	cases := []struct {
		name string
		grid []float64
		ok   bool
	}{
		{"nil selects default", nil, true},
		{"valid", []float64{1e3, 1e4}, true},
		{"empty", []float64{}, false},
		{"zero", []float64{1e3, 0}, false},
		{"negative", []float64{-1e3}, false},
		{"NaN", []float64{math.NaN()}, false},
		{"+Inf", []float64{1e3, math.Inf(1)}, false},
		{"-Inf", []float64{math.Inf(-1)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Slots: 48, N: 200, VGrid: c.grid}
			err := cfg.fill()
			if (err == nil) != c.ok {
				t.Fatalf("fill() = %v, want ok=%v", err, c.ok)
			}
			if c.ok {
				return
			}
			if !strings.Contains(err.Error(), "V grid") {
				t.Errorf("fill() error %q does not name the V grid", err)
			}
			// The figures surface the same error instead of panicking.
			if _, err := Fig3(Config{Slots: 48, N: 200, VGrid: c.grid, Out: io.Discard}); err == nil {
				t.Error("Fig3 accepted the grid")
			}
		})
	}
	sc, _, err := Config{Slots: 48, N: 200}.Scenario(false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tuneV(sc, []float64{}, 1, nil); err == nil {
		t.Error("tuneV accepted an empty grid")
	}
}

// TestConfigRejectsNegativeSizes checks that a negative size is an error
// naming its field, raised before calibration generates or indexes a trace
// (Slots: -5 used to panic in trace.Constant).
func TestConfigRejectsNegativeSizes(t *testing.T) {
	for _, c := range []struct {
		field string
		cfg   Config
	}{
		{"Slots", Config{Slots: -5}},
		{"N", Config{N: -1}},
		{"PeakRPS", Config{PeakRPS: -1e6}},
		{"Budget", Config{Budget: -0.1}},
	} {
		t.Run(c.field, func(t *testing.T) {
			_, _, err := c.cfg.Scenario(false)
			if err == nil || !strings.Contains(err.Error(), "experiments.Config."+c.field) {
				t.Errorf("error %v, want one naming experiments.Config.%s", err, c.field)
			}
		})
	}
}

func TestFig1(t *testing.T) {
	var buf bytes.Buffer
	cfg := smallConfig()
	cfg.Out = &buf
	res, err := Fig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FIUJuly) != 31*24 {
		t.Errorf("July slice = %d hours", len(res.FIUJuly))
	}
	if len(res.MSRWeek) != 7*24 {
		t.Errorf("MSR week = %d hours", len(res.MSRWeek))
	}
	if len(res.FIUMonthlyMean) != 12 {
		t.Fatalf("months = %d", len(res.FIUMonthlyMean))
	}
	// The late-July surge: August clearly above June.
	if res.FIUMonthlyMean[7] < res.FIUMonthlyMean[5]*1.15 {
		t.Errorf("no surge: Jun %v, Aug %v", res.FIUMonthlyMean[5], res.FIUMonthlyMean[7])
	}
	if !strings.Contains(buf.String(), "Fig 1(a)") {
		t.Error("report missing")
	}
}

func TestFig2ShapeMatchesPaper(t *testing.T) {
	cfg := smallConfig()
	cfg.Out = io.Discard
	res, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sweep) < 5 {
		t.Fatalf("sweep too small: %d", len(res.Sweep))
	}
	first, last := res.Sweep[0], res.Sweep[len(res.Sweep)-1]
	// Fig. 2(a): cost decreases with V.
	if last.AvgCostUSD >= first.AvgCostUSD {
		t.Errorf("cost did not fall with V: %v → %v", first.AvgCostUSD, last.AvgCostUSD)
	}
	// Fig. 2(b): deficit increases with V.
	if last.AvgDeficitKWh <= first.AvgDeficitKWh {
		t.Errorf("deficit did not rise with V: %v → %v", first.AvgDeficitKWh, last.AvgDeficitKWh)
	}
	// The V→∞ reference lower-bounds every sweep point.
	for _, p := range res.Sweep {
		if p.AvgCostUSD < res.UnawareAvgCostUSD*(1-1e-9) {
			t.Errorf("V=%v cost %v below the carbon-unaware cost %v",
				p.V, p.AvgCostUSD, res.UnawareAvgCostUSD)
		}
	}
	// Fig. 2(c,d): quarterly-V series present and finite.
	if len(res.MovingAvgCost) != cfg.Slots {
		t.Fatalf("moving average length %d", len(res.MovingAvgCost))
	}
	for i, v := range res.MovingAvgCost {
		if math.IsNaN(v) || v < 0 {
			t.Fatalf("moving avg cost[%d] = %v", i, v)
		}
	}
}

// TestFig2GoldenHash pins the Fig. 2 V-sweep absolutely: sixty days of
// the 2,000-server scenario on one worker, with every sweep row folded into
// FNV-1a as little-endian IEEE-754 bits. TestParallelSweepsMatchSequential
// covers the fan-out; this digest covers the arithmetic itself.
func TestFig2GoldenHash(t *testing.T) {
	const want = "fnv1a:cddedbf1a4a99d84"
	res, err := Fig2(Config{Slots: 60 * 24, N: 2000, Seed: 2012, Workers: 1, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range res.Sweep {
		for _, v := range []float64{p.V, p.AvgCostUSD, p.AvgDeficitKWh, p.BudgetUsed} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if got := fmt.Sprintf("fnv1a:%016x", h.Sum64()); got != want {
		t.Errorf("Fig. 2 sweep hash = %s, want %s (experiment arithmetic drifted)", got, want)
	}
}

// TestFig3GoldenHash pins Fig. 3 absolutely: sixty days of the
// 2,000-server scenario on one worker, with the tuned V, both summaries, the
// saving and all four running-average series folded into FNV-1a as
// little-endian IEEE-754 bits.
func TestFig3GoldenHash(t *testing.T) {
	const want = "fnv1a:ab4dcc8a33bd6f8d"
	res, err := Fig3(Config{Slots: 60 * 24, N: 2000, Seed: 2012, Workers: 1, Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	put(res.CocaV, res.SavingFrac)
	for _, s := range []sim.Summary{res.Coca, res.PerfectHP} {
		put(float64(s.Slots), s.SlotHours, s.AvgHourlyCostUSD, s.AvgElectricityUSD, s.AvgDelayUSD,
			s.AvgSwitchUSD, s.TotalGridKWh, s.TotalEnergyKWh, s.AvgDeficitKWh, s.FinalRunningDeficit,
			s.BudgetKWh, s.BudgetUsedFraction, s.ShortfallKWh, s.TrueUpUSD)
	}
	put(res.RunningCostCoca...)
	put(res.RunningCostPHP...)
	put(res.RunningDeficitCoca...)
	put(res.RunningDeficitPHP...)
	if got := fmt.Sprintf("fnv1a:%016x", h.Sum64()); got != want {
		t.Errorf("Fig. 3 hash = %s, want %s (experiment arithmetic drifted)", got, want)
	}
}

func TestFig3CocaBeatsPerfectHP(t *testing.T) {
	cfg := smallConfig()
	cfg.Out = io.Discard
	res, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CocaNeutral {
		t.Error("tuned COCA not carbon neutral")
	}
	if res.SavingFrac <= 0 {
		t.Errorf("COCA did not beat PerfectHP: saving %v", res.SavingFrac)
	}
	if len(res.RunningCostCoca) != cfg.Slots || len(res.RunningDeficitPHP) != cfg.Slots {
		t.Error("running series length wrong")
	}
	// Fig. 3(a): the final running-average ordering matches the summary.
	lastCoca := res.RunningCostCoca[cfg.Slots-1]
	lastPHP := res.RunningCostPHP[cfg.Slots-1]
	if lastCoca >= lastPHP {
		t.Errorf("running averages disagree: coca %v, php %v", lastCoca, lastPHP)
	}
}

func TestFig4GSDBehavior(t *testing.T) {
	cfg := smallConfig()
	cfg.Out = io.Discard
	cfg.N = 2000 // 200 groups × 10 servers
	res, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DeltaRuns) != 3 {
		t.Fatalf("delta runs = %d", len(res.DeltaRuns))
	}
	// Fig. 4(a): higher δ must end at least as good as the lowest δ.
	low := res.DeltaRuns[0].Final
	high := res.DeltaRuns[2].Final
	if high > low*1.02 {
		t.Errorf("high-δ final %v worse than low-δ %v", high, low)
	}
	// Fig. 4(b): different initial points converge to similar objectives
	// ("GSD is quite insensitive to the initial point").
	if len(res.InitRuns) < 2 {
		t.Fatalf("init runs = %d", len(res.InitRuns))
	}
	var lo, hi float64 = math.Inf(1), 0
	for _, r := range res.InitRuns {
		if r.Final < lo {
			lo = r.Final
		}
		if r.Final > hi {
			hi = r.Final
		}
	}
	if hi > lo*1.10 {
		t.Errorf("initial-point spread too wide: %v vs %v", lo, hi)
	}
	if res.Elapsed500 <= 0 {
		t.Error("timing not recorded")
	}
}

func TestFig5Sensitivity(t *testing.T) {
	cfg := smallConfig()
	cfg.Out = io.Discard
	cfg.Slots = 6 * 7 * 24 // shorter: Fig5 runs many scenarios
	res, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, sweep := range map[string][]Fig5BudgetPoint{
		"FIU": res.BudgetSweepFIU, "MSR": res.BudgetSweepMSR,
	} {
		if len(sweep) != 6 {
			t.Fatalf("%s sweep length %d", name, len(sweep))
		}
		for _, p := range sweep {
			// OPT never beaten by a neutral COCA; both near or above 1 of
			// unaware only when budget is tight.
			if p.CocaNeutral && p.CocaCost < p.OptCost*(1-5e-3) {
				t.Errorf("%s budget %v: neutral COCA %v beats OPT %v",
					name, p.BudgetFrac, p.CocaCost, p.OptCost)
			}
			if p.OptCost < 1-1e-9 {
				t.Errorf("%s budget %v: OPT %v below unaware (impossible: unaware is unconstrained optimum)",
					name, p.BudgetFrac, p.OptCost)
			}
		}
		// Tighter budgets cost at least as much as looser ones for OPT.
		for i := 1; i < len(sweep); i++ {
			if sweep[i].OptCost > sweep[i-1].OptCost*(1+5e-3) {
				t.Errorf("%s: OPT cost increased with looser budget: %v → %v",
					name, sweep[i-1].OptCost, sweep[i].OptCost)
			}
		}
	}
	// Fig. 5(c): overestimation up to 20% costs little (paper: < 2.5%).
	last := res.OverestimateCost[len(res.OverestimateCost)-1]
	if last > 1.05 {
		t.Errorf("20%% overestimation raised cost by %v%%", (last-1)*100)
	}
	// Fig. 5(d): 10% switching cost raises total cost mildly (paper: < 5%).
	lastSw := res.SwitchCost[len(res.SwitchCost)-1]
	if lastSw > 1.10 {
		t.Errorf("10%% switching cost raised cost by %v%%", (lastSw-1)*100)
	}
	for _, v := range append(res.OverestimateCost, res.SwitchCost...) {
		if v < 0.95 {
			t.Errorf("normalized cost %v below baseline — accounting bug?", v)
		}
	}
}

func TestPortfolioMixInsensitivity(t *testing.T) {
	cfg := smallConfig()
	cfg.Slots = 6 * 7 * 24
	shares, costs, err := PortfolioMixStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != len(costs) {
		t.Fatal("length mismatch")
	}
	for i, c := range costs {
		if math.Abs(c-1) > 0.03 {
			t.Errorf("offsite share %v changed cost by %v%% (paper: < 1%%)",
				shares[i], (c-1)*100)
		}
	}
}

func TestTuneVStaysWithinBudget(t *testing.T) {
	cfg := smallConfig()
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	sc, _, err := cfg.Scenario(false)
	if err != nil {
		t.Fatal(err)
	}
	v, s, err := tuneV(sc, cfg.VGrid, cfg.workers(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("v = %v", v)
	}
	if s.BudgetUsedFraction > 1.0 {
		t.Errorf("tuned V violates budget: %v", s.BudgetUsedFraction)
	}
	if s.BudgetUsedFraction < 0.85 {
		t.Errorf("tuned V wastes budget: %v", s.BudgetUsedFraction)
	}
}
