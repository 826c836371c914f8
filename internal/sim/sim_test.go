package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/renewable"
	"repro/internal/trace"
)

// fixedPolicy always returns the same configuration.
type fixedPolicy struct {
	cfg      Config
	observed []Feedback
}

func (f *fixedPolicy) Name() string { return "fixed" }
func (f *fixedPolicy) Decide(Observation) (Config, error) {
	return f.cfg, nil
}
func (f *fixedPolicy) Observe(fb Feedback) { f.observed = append(f.observed, fb) }

func testScenario(slots int) *Scenario {
	return &Scenario{
		Server: dcmodel.Opteron(), N: 100, Gamma: 0.95, PUE: 1, Beta: 0.01,
		Workload: trace.Constant("w", 300, slots),
		Price:    trace.Constant("p", 0.05, slots),
		Portfolio: &renewable.Portfolio{
			OnsiteKW:   trace.Constant("r", 2, slots),
			OffsiteKWh: trace.Constant("f", 3, slots),
			RECsKWh:    float64(slots), // z = 1 kWh per slot
			Alpha:      1,
		},
		Slots: slots,
	}
}

func TestRunBasicAccounting(t *testing.T) {
	sc := testScenario(10)
	p := &fixedPolicy{cfg: Config{Speed: 4, Active: 50}}
	res, err := Run(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("records = %d", len(res.Records))
	}
	r := res.Records[0]
	// Power: 50 servers, λ=300 → per-server 6: 50·0.140 + 0.091·300/10 = 9.73 kW.
	if math.Abs(r.PowerKW-9.73) > 1e-9 {
		t.Errorf("power = %v, want 9.73", r.PowerKW)
	}
	if math.Abs(r.GridKWh-(9.73-2)) > 1e-9 {
		t.Errorf("grid = %v", r.GridKWh)
	}
	if math.Abs(r.ElectricityUSD-0.05*7.73) > 1e-9 {
		t.Errorf("electricity = %v", r.ElectricityUSD)
	}
	// Delay: 50 · 6/(10−6) = 75.
	if math.Abs(r.DelayCost-75) > 1e-9 {
		t.Errorf("delay = %v, want 75", r.DelayCost)
	}
	// Deficit: 7.73 − 1·3 − 1 = 3.73.
	if math.Abs(r.DeficitKWh-3.73) > 1e-9 {
		t.Errorf("deficit = %v, want 3.73", r.DeficitKWh)
	}
	if len(p.observed) != 10 {
		t.Fatalf("policy observed %d feedbacks", len(p.observed))
	}
	if p.observed[0].GridKWh != r.GridKWh || p.observed[0].OffsiteKWh != 3 {
		t.Error("feedback mismatch")
	}
}

func TestRunSwitchingCost(t *testing.T) {
	sc := testScenario(3)
	sc.SwitchCostKWh = 0.1
	p := &fixedPolicy{cfg: Config{Speed: 4, Active: 60}}
	res, err := Run(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0: 60 servers toggled on from 0 → 60·0.1·0.05 = 0.30 $.
	if math.Abs(res.Records[0].SwitchUSD-0.30) > 1e-9 {
		t.Errorf("first-slot switch cost = %v", res.Records[0].SwitchUSD)
	}
	// Steady state: no toggles.
	if res.Records[1].SwitchUSD != 0 {
		t.Errorf("steady-state switch cost = %v", res.Records[1].SwitchUSD)
	}
}

func TestRunOverloadDetected(t *testing.T) {
	sc := testScenario(5)
	for _, cfg := range []Config{
		{Speed: 4, Active: 10}, // per-server 30 > γ·10
		{Speed: 0, Active: 50}, // off with load
		{Speed: 4, Active: 0},  // nobody on
	} {
		_, err := Run(sc, &fixedPolicy{cfg: cfg})
		if !errors.Is(err, ErrOverload) {
			t.Errorf("cfg %+v: want ErrOverload, got %v", cfg, err)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	sc := testScenario(5)
	if _, err := Run(sc, &fixedPolicy{cfg: Config{Speed: 9, Active: 50}}); err == nil {
		t.Error("bad speed accepted")
	}
	if _, err := Run(sc, &fixedPolicy{cfg: Config{Speed: 4, Active: 101}}); err == nil {
		t.Error("active > N accepted")
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"bad fleet", func(s *Scenario) { s.N = 0 }},
		{"bad gamma", func(s *Scenario) { s.Gamma = 1 }},
		{"bad pue", func(s *Scenario) { s.PUE = 0.9 }},
		{"neg beta", func(s *Scenario) { s.Beta = -1 }},
		{"no slots", func(s *Scenario) { s.Slots = 0 }},
		{"nil workload", func(s *Scenario) { s.Workload = nil }},
		{"short workload", func(s *Scenario) { s.Workload = trace.Constant("w", 1, 3) }},
		{"nil price", func(s *Scenario) { s.Price = nil }},
		{"nil portfolio", func(s *Scenario) { s.Portfolio = nil }},
		{"phi<1", func(s *Scenario) { s.Overestimate = 0.5 }},
		{"neg switch", func(s *Scenario) { s.SwitchCostKWh = -1 }},
		// NaN fails every comparison, so each check must be written to
		// reject it rather than to accept it by default.
		{"nan gamma", func(s *Scenario) { s.Gamma = math.NaN() }},
		{"nan pue", func(s *Scenario) { s.PUE = math.NaN() }},
		{"inf pue", func(s *Scenario) { s.PUE = math.Inf(1) }},
		{"nan beta", func(s *Scenario) { s.Beta = math.NaN() }},
		{"nan switch", func(s *Scenario) { s.SwitchCostKWh = math.NaN() }},
		{"nan slot hours", func(s *Scenario) { s.SlotHours = math.NaN() }},
		{"neg slot hours", func(s *Scenario) { s.SlotHours = -1 }},
		// An infinite slot length or switching cost passes a plain ≥ 0
		// test and fails the run mid-way with an infeasible P3.
		{"inf slot hours", func(s *Scenario) { s.SlotHours = math.Inf(1) }},
		{"inf switch", func(s *Scenario) { s.SwitchCostKWh = math.Inf(1) }},
		{"nan phi", func(s *Scenario) { s.Overestimate = math.NaN() }},
		// An infinite φ makes φ·λ NaN on a zero-load slot, which stops COCA
		// there with p3.ErrInvalid.
		{"inf overestimate", func(s *Scenario) { s.Overestimate = math.Inf(1) }},
		{"overloaded", func(s *Scenario) { s.Workload = trace.Constant("w", 1e9, s.Slots) }},
		// A negative or non-finite λ anywhere in the horizon, not only at
		// its peak, would stop the run at its slot with p3.ErrInvalid.
		{"neg workload", func(s *Scenario) { s.Workload.Values[3] = -1 }},
		{"nan workload", func(s *Scenario) { s.Workload.Values[3] = math.NaN() }},
		{"nan first workload", func(s *Scenario) { s.Workload.Values[0] = math.NaN() }},
		{"-inf workload", func(s *Scenario) { s.Workload.Values[3] = math.Inf(-1) }},
	}
	for _, tc := range cases {
		sc := testScenario(10)
		tc.mutate(sc)
		if err := sc.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if err := testScenario(10).Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
	sc := testScenario(10)
	sc.Workload.Values[7] = -2
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "slot 7") {
		t.Errorf("negative workload at slot 7: Validate = %v, want an error naming the slot", err)
	}
	// Values past the horizon are never run, so they are not checked.
	sc = testScenario(10)
	sc.Slots = 9
	sc.Workload.Values[9] = math.NaN()
	if err := sc.Validate(); err != nil {
		t.Errorf("bad workload past the horizon rejected: %v", err)
	}
}

func TestOverestimationCladsObservationOnly(t *testing.T) {
	sc := testScenario(5)
	sc.Overestimate = 1.2
	obs := sc.Observe(0)
	if math.Abs(obs.LambdaRPS-360) > 1e-9 {
		t.Errorf("overestimated λ = %v, want 360", obs.LambdaRPS)
	}
	// Costs must use the true λ.
	p := &fixedPolicy{cfg: Config{Speed: 4, Active: 60}}
	res, err := Run(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records[0].LambdaRPS != 300 {
		t.Errorf("recorded λ = %v, want true 300", res.Records[0].LambdaRPS)
	}
	// Clamped to capacity.
	sc.Overestimate = 100
	if got := sc.Observe(0).LambdaRPS; got > sc.Capacity() {
		t.Errorf("overestimate not clamped: %v", got)
	}
}

func TestSummarize(t *testing.T) {
	sc := testScenario(10)
	p := &fixedPolicy{cfg: Config{Speed: 4, Active: 50}}
	res, err := Run(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(sc, res)
	if s.Slots != 10 || s.Policy != "fixed" {
		t.Errorf("summary header wrong: %+v", s)
	}
	wantGrid := 7.73 * 10
	if math.Abs(s.TotalGridKWh-wantGrid) > 1e-6 {
		t.Errorf("TotalGrid = %v, want %v", s.TotalGridKWh, wantGrid)
	}
	if math.Abs(s.BudgetKWh-(30+10)) > 1e-9 { // α(Σf + Z·(10/slots)) wait: Z is full-period
		t.Errorf("budget = %v", s.BudgetKWh)
	}
	if math.Abs(s.AvgHourlyCostUSD-(s.AvgElectricityUSD+s.AvgDelayUSD+s.AvgSwitchUSD)) > 1e-9 {
		t.Error("cost components do not add up")
	}
	if math.Abs(s.BudgetUsedFraction-wantGrid/s.BudgetKWh) > 1e-9 {
		t.Error("BudgetUsedFraction inconsistent")
	}
}

func TestSeriesExtraction(t *testing.T) {
	sc := testScenario(4)
	res, err := Run(sc, &fixedPolicy{cfg: Config{Speed: 4, Active: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CostSeries()) != 4 || len(res.DeficitSeries()) != 4 {
		t.Error("series lengths wrong")
	}
	if res.CostSeries()[0] != res.Records[0].TotalUSD {
		t.Error("cost series mismatch")
	}
}

func TestZeroLoadSlots(t *testing.T) {
	sc := testScenario(5)
	sc.Workload = trace.Constant("w", 0, 5)
	p := &fixedPolicy{cfg: Config{Speed: 0, Active: 0}}
	res, err := Run(sc, p)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Records[0]
	if r.PowerKW != 0 || r.DelayCost != 0 || r.TotalUSD != 0 {
		t.Errorf("idle slot not free: %+v", r)
	}
	// Deficit can be negative (surplus).
	if r.DeficitKWh >= 0 {
		t.Errorf("idle deficit = %v, want negative", r.DeficitKWh)
	}
}
