package reqsim

import (
	"errors"
	"math"
	"testing"
)

// Self-checks of the oracle in oracle_test.go: it must reproduce Eq. (4)
// and the textbook PS properties on its own before it can vouch for the
// engine.

func TestOracleMeanJobsMatchesAnalytic(t *testing.T) {
	// E[N] = ρ/(1−ρ) for M/M/1 ≡ M/M/1/PS.
	for _, rho := range []float64{0.3, 0.5, 0.7, 0.85} {
		cfg := oracleConfig{
			ArrivalRPS: rho * 10,
			ServiceRPS: 10,
			Service:    oracleExponentialService(1),
			Horizon:    60000,
			Warmup:     3000,
			Seed:       1,
		}
		res, err := oracleSimulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleAnalyticMeanJobs(cfg.ArrivalRPS, cfg.ServiceRPS)
		if math.Abs(res.MeanJobs-want) > 0.08*want+0.05 {
			t.Errorf("ρ=%v: mean jobs %v, analytic %v", rho, res.MeanJobs, want)
		}
		if math.Abs(res.UtilFraction-rho) > 0.03 {
			t.Errorf("ρ=%v: measured utilization %v", rho, res.UtilFraction)
		}
	}
}

func TestPSInsensitivity(t *testing.T) {
	// The PS mean number in system depends on the service distribution only
	// through its mean — the property that justifies using Eq. (4) for
	// general ("mice-type") workloads.
	const rho = 0.7
	base := oracleConfig{
		ArrivalRPS: rho * 10,
		ServiceRPS: 10,
		Horizon:    80000,
		Warmup:     4000,
		Seed:       2,
	}
	want := oracleAnalyticMeanJobs(base.ArrivalRPS, base.ServiceRPS)
	dists := map[string]oracleServiceDist{
		"exponential":   oracleExponentialService(1),
		"deterministic": oracleDeterministicService(1),
		"hyperexp":      oracleHyperexpService(1, 0.15),
	}
	for name, d := range dists {
		cfg := base
		cfg.Service = d
		res, err := oracleSimulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.MeanJobs-want) > 0.12*want {
			t.Errorf("%s: mean jobs %v, want ≈ %v (insensitivity violated)",
				name, res.MeanJobs, want)
		}
	}
}

func TestLittlesLaw(t *testing.T) {
	cfg := oracleConfig{
		ArrivalRPS: 6,
		ServiceRPS: 10,
		Service:    oracleExponentialService(1),
		Horizon:    50000,
		Warmup:     2000,
		Seed:       3,
	}
	res, err := oracleSimulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// N = λ·T (no drops here, so effective λ is the offered λ).
	n := cfg.ArrivalRPS * res.MeanRespSec
	if math.Abs(n-res.MeanJobs) > 0.1*res.MeanJobs {
		t.Errorf("Little's law: λT = %v vs N = %v", n, res.MeanJobs)
	}
}

func TestPaperServiceTimes(t *testing.T) {
	// §5.1: mean service time 100 ms at full speed (x = 10 req/s). A lone
	// job must take ≈ 100 ms.
	cfg := oracleConfig{
		ArrivalRPS: 0.01, // essentially always alone
		ServiceRPS: 10,
		Service:    oracleExponentialService(1),
		Horizon:    2e6,
		Warmup:     1000,
		Seed:       4,
	}
	res, err := oracleSimulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanRespSec-0.1) > 0.01 {
		t.Errorf("lone-job response = %v s, want ≈ 0.1", res.MeanRespSec)
	}
}

func TestMaxJobsDrops(t *testing.T) {
	cfg := oracleConfig{
		ArrivalRPS: 20, // overloaded
		ServiceRPS: 10,
		Service:    oracleExponentialService(1),
		Horizon:    5000,
		Warmup:     100,
		Seed:       5,
		MaxJobs:    50,
	}
	res, err := oracleSimulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Error("overloaded finite queue never dropped")
	}
	if res.MeanJobs > 51 {
		t.Errorf("mean jobs %v exceeds cap", res.MeanJobs)
	}
}

func TestZeroArrivals(t *testing.T) {
	cfg := oracleConfig{
		ArrivalRPS: 0,
		ServiceRPS: 10,
		Service:    oracleExponentialService(1),
		Horizon:    100,
		Seed:       6,
	}
	res, err := oracleSimulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanJobs != 0 || res.Completed != 0 {
		t.Errorf("empty system: %+v", res)
	}
}

func TestOracleConfigValidation(t *testing.T) {
	bad := []oracleConfig{
		{ArrivalRPS: -1, ServiceRPS: 1, Service: oracleExponentialService(1), Horizon: 1},
		{ArrivalRPS: 1, ServiceRPS: 0, Service: oracleExponentialService(1), Horizon: 1},
		{ArrivalRPS: 1, ServiceRPS: 2, Service: nil, Horizon: 1},
		{ArrivalRPS: 1, ServiceRPS: 2, Service: oracleExponentialService(1), Horizon: 0},
		{ArrivalRPS: 1, ServiceRPS: 2, Service: oracleExponentialService(1), Horizon: 1, Warmup: 2},
		{ArrivalRPS: 1, ServiceRPS: 2, Service: oracleExponentialService(1), Horizon: 1, Warmup: 1},
		{ArrivalRPS: math.NaN(), ServiceRPS: 1, Service: oracleExponentialService(1), Horizon: 1},
		{ArrivalRPS: math.Inf(1), ServiceRPS: 1, Service: oracleExponentialService(1), Horizon: 1},
		{ArrivalRPS: 1, ServiceRPS: math.NaN(), Service: oracleExponentialService(1), Horizon: 1},
		{ArrivalRPS: 1, ServiceRPS: 2, Service: oracleExponentialService(1), Horizon: math.NaN()},
		{ArrivalRPS: 1, ServiceRPS: 2, Service: oracleExponentialService(1), Horizon: math.Inf(1)},
		{ArrivalRPS: 1, ServiceRPS: 2, Service: oracleExponentialService(1), Horizon: 2, Warmup: math.NaN()},
		{ArrivalRPS: 1, ServiceRPS: 2, Service: oracleExponentialService(1), Horizon: 1, MaxJobs: -1},
		// Unstable (ρ >= 1) without a MaxJobs cap: the run would "measure"
		// a horizon artifact, not a steady state.
		{ArrivalRPS: 2, ServiceRPS: 1, Service: oracleExponentialService(1), Horizon: 1},
		{ArrivalRPS: 1, ServiceRPS: 1, Service: oracleExponentialService(1), Horizon: 1},
	}
	for i, cfg := range bad {
		_, err := oracleSimulate(cfg)
		if !errors.Is(err, errOracleBadConfig) {
			t.Errorf("case %d: want errOracleBadConfig, got %v", i, err)
		}
	}
	// ρ >= 1 is legal when MaxJobs makes the system finite (loss system).
	ok := oracleConfig{ArrivalRPS: 2, ServiceRPS: 1, Service: oracleExponentialService(1),
		Horizon: 10, MaxJobs: 5}
	if _, err := oracleSimulate(ok); err != nil {
		t.Errorf("capped unstable system should simulate, got %v", err)
	}
}

// TestSimulateAllocsBounded pins the oracle's allocation behavior: the
// per-run count must be O(1) — the RNG, the closure environment and
// amortized heap slab growth — never O(events). The old container/heap
// implementation boxed one `any` per arrival, which at ~14k events would
// blow this bound by two orders of magnitude.
func TestSimulateAllocsBounded(t *testing.T) {
	cfg := oracleConfig{
		ArrivalRPS: 7, ServiceRPS: 10, Service: oracleExponentialService(1),
		Horizon: 2000, Warmup: 100, Seed: 11,
	}
	// Warm once so lazy runtime state doesn't count.
	if _, err := oracleSimulate(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := oracleSimulate(cfg); err != nil {
			t.Error(err)
		}
	})
	// ~14k arrivals per run; O(1) setup allocations only.
	if allocs > 40 {
		t.Errorf("oracleSimulate allocated %.0f times per run; want O(1), not O(events)", allocs)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	cfg := oracleConfig{
		ArrivalRPS: 5, ServiceRPS: 10, Service: oracleExponentialService(1),
		Horizon: 1000, Warmup: 10, Seed: 7,
	}
	a, _ := oracleSimulate(cfg)
	b, _ := oracleSimulate(cfg)
	if a != b {
		t.Error("same seed gave different results")
	}
}

func TestHyperexpPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	oracleHyperexpService(1, 1.5)
}

func TestAnalyticSaturation(t *testing.T) {
	if !math.IsInf(oracleAnalyticMeanJobs(10, 10), 1) {
		t.Error("saturated queue should predict +Inf")
	}
	if got := oracleAnalyticMeanJobs(5, 10); got != 1 {
		t.Errorf("ρ=0.5 analytic = %v, want 1", got)
	}
}
