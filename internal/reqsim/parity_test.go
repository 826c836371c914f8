package reqsim

import "testing"

// pair builds the oracle and engine configs for the same scenario. The
// service mean is fixed at 1 (the paper's convention) so the oracle's and
// the engine's stability rules coincide.
type scenario struct {
	name       string
	arrival    float64
	service    float64
	oracleDist oracleServiceDist
	engineDist ServiceSampler
	horizon    float64
	warmup     float64
	maxJobs    int
}

// TestBitParityWithOracle is the engine's core correctness claim: on every
// Poisson configuration the fast engine and the oracle (oracle_test.go)
// consume the identical RNG stream, order the identical events and
// accumulate with the identical float expressions — so every shared Result
// field must match bit for bit, across distributions, loads, caps and
// seeds. Not "close": equal.
func TestBitParityWithOracle(t *testing.T) {
	scenarios := []scenario{
		{name: "exp-rho03", arrival: 3, service: 10,
			oracleDist: oracleExponentialService(1), engineDist: ExponentialService(1),
			horizon: 4000, warmup: 200},
		{name: "exp-rho05", arrival: 5, service: 10,
			oracleDist: oracleExponentialService(1), engineDist: ExponentialService(1),
			horizon: 4000, warmup: 200},
		{name: "exp-rho07", arrival: 7, service: 10,
			oracleDist: oracleExponentialService(1), engineDist: ExponentialService(1),
			horizon: 4000, warmup: 200},
		{name: "exp-rho085", arrival: 8.5, service: 10,
			oracleDist: oracleExponentialService(1), engineDist: ExponentialService(1),
			horizon: 4000, warmup: 200},
		{name: "det", arrival: 6, service: 10,
			oracleDist: oracleDeterministicService(1), engineDist: DeterministicService(1),
			horizon: 3000, warmup: 100},
		{name: "hyperexp", arrival: 6, service: 10,
			oracleDist: oracleHyperexpService(1, 0.15), engineDist: HyperexpService(1, 0.15),
			horizon: 3000, warmup: 100},
		{name: "overloaded-capped", arrival: 20, service: 10,
			oracleDist: oracleExponentialService(1), engineDist: ExponentialService(1),
			horizon: 2000, warmup: 100, maxJobs: 50},
		{name: "zero-warmup", arrival: 4, service: 10,
			oracleDist: oracleExponentialService(1), engineDist: ExponentialService(1),
			horizon: 1500, warmup: 0},
		{name: "no-arrivals", arrival: 0, service: 10,
			oracleDist: oracleExponentialService(1), engineDist: ExponentialService(1),
			horizon: 100, warmup: 0},
	}
	eng := NewEngine()
	for _, sc := range scenarios {
		for seed := uint64(1); seed <= 5; seed++ {
			want, err := oracleSimulate(oracleConfig{
				ArrivalRPS: sc.arrival, ServiceRPS: sc.service, Service: sc.oracleDist,
				Horizon: sc.horizon, Warmup: sc.warmup, Seed: seed, MaxJobs: sc.maxJobs,
			})
			if err != nil {
				t.Fatalf("%s seed %d: oracle: %v", sc.name, seed, err)
			}
			got, err := eng.Run(Config{
				ArrivalRPS: sc.arrival, ServiceRPS: sc.service, Service: sc.engineDist,
				Horizon: sc.horizon, Warmup: sc.warmup, Seed: seed, MaxJobs: sc.maxJobs,
			}, nil)
			if err != nil {
				t.Fatalf("%s seed %d: engine: %v", sc.name, seed, err)
			}
			if got.MeanJobs != want.MeanJobs {
				t.Errorf("%s seed %d: MeanJobs %v != oracle %v", sc.name, seed, got.MeanJobs, want.MeanJobs)
			}
			if got.MeanRespSec != want.MeanRespSec {
				t.Errorf("%s seed %d: MeanRespSec %v != oracle %v", sc.name, seed, got.MeanRespSec, want.MeanRespSec)
			}
			if got.UtilFraction != want.UtilFraction {
				t.Errorf("%s seed %d: UtilFraction %v != oracle %v", sc.name, seed, got.UtilFraction, want.UtilFraction)
			}
			if got.Completed != want.Completed {
				t.Errorf("%s seed %d: Completed %d != oracle %d", sc.name, seed, got.Completed, want.Completed)
			}
			if got.Dropped != want.Dropped {
				t.Errorf("%s seed %d: Dropped %d != oracle %d", sc.name, seed, got.Dropped, want.Dropped)
			}
		}
	}
}

// TestParityUnaffectedByEngineReuse pins the Reseed/reset contract: a warm
// engine that has just simulated a completely different scenario must
// produce the identical bits a fresh engine does.
func TestParityUnaffectedByEngineReuse(t *testing.T) {
	cfg := Config{
		ArrivalRPS: 7, ServiceRPS: 10, Service: HyperexpService(1, 0.3),
		Horizon: 2000, Warmup: 100, Seed: 42,
	}
	fresh, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	// Dirty the engine with an unrelated overloaded capped run.
	if _, err := eng.Run(Config{
		ArrivalRPS: 30, ServiceRPS: 10, Service: ExponentialService(1),
		Horizon: 500, Warmup: 10, Seed: 9, MaxJobs: 8,
	}, nil); err != nil {
		t.Fatal(err)
	}
	warm, err := eng.Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm != fresh {
		t.Errorf("warm engine diverged from fresh engine:\nwarm  %+v\nfresh %+v", warm, fresh)
	}
}
