package sim

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// randomPolicy picks arbitrary feasible configurations, exercising the
// engine's accounting on a wide range of states.
type randomPolicy struct {
	sc  *Scenario
	rng *stats.RNG
}

func (r *randomPolicy) Name() string { return "random" }

func (r *randomPolicy) Decide(obs Observation) (Config, error) {
	k := 1 + r.rng.IntN(r.sc.Server.NumSpeeds())
	minActive := 1
	if obs.LambdaRPS > 0 {
		minActive = int(math.Ceil(obs.LambdaRPS / (r.sc.Gamma * r.sc.Server.Rate(k))))
	}
	if minActive > r.sc.N {
		// Fall back to top speed, which the scenario validation guarantees
		// can carry the peak.
		k = r.sc.Server.NumSpeeds()
		minActive = int(math.Ceil(obs.LambdaRPS / (r.sc.Gamma * r.sc.Server.Rate(k))))
	}
	active := minActive + r.rng.IntN(r.sc.N-minActive+1)
	return Config{Speed: k, Active: active}, nil
}

func (r *randomPolicy) Observe(Feedback) {}

// TestAccountingIdentities drives random configurations through the engine
// and checks every record satisfies the cost-model identities exactly.
func TestAccountingIdentities(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		sc := testScenario(100)
		sc.SwitchCostKWh = 0.05
		rng := stats.NewRNG(uint64(1000 + trial))
		// Random but valid environment traces.
		wl := make([]float64, sc.Slots)
		for i := range wl {
			wl[i] = rng.Uniform(0, 0.8*sc.Capacity())
		}
		sc.Workload = &trace.Trace{Name: "rand", Values: wl}
		res, err := Run(sc, &randomPolicy{sc: sc, rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		prevActive := 0
		for _, r := range res.Records {
			// Identity 1: total = electricity + delay + switching.
			if math.Abs(r.TotalUSD-(r.ElectricityUSD+r.DelayUSD+r.SwitchUSD)) > 1e-9*(1+r.TotalUSD) {
				t.Fatalf("slot %d: components do not sum: %+v", r.Slot, r)
			}
			// Identity 2: grid = [power − onsite]^+.
			if math.Abs(r.GridKWh-math.Max(0, r.PowerKW-r.OnsiteKW)) > 1e-9 {
				t.Fatalf("slot %d: grid identity broken: %+v", r.Slot, r)
			}
			// Identity 3: electricity = price · grid (Eq. 3).
			if math.Abs(r.ElectricityUSD-r.PriceUSDPerKWh*r.GridKWh) > 1e-9 {
				t.Fatalf("slot %d: electricity identity broken: %+v", r.Slot, r)
			}
			// Identity 4: switching = price · c_sw · |Δactive|.
			wantSw := r.PriceUSDPerKWh * sc.SwitchCostKWh * math.Abs(float64(r.Active-prevActive))
			if math.Abs(r.SwitchUSD-wantSw) > 1e-9 {
				t.Fatalf("slot %d: switching identity broken: got %v want %v", r.Slot, r.SwitchUSD, wantSw)
			}
			// Identity 5: deficit = grid − α·offsite − z.
			z := sc.Portfolio.RECPerSlotKWh(sc.Slots)
			wantDef := r.GridKWh - sc.Portfolio.Alpha*r.OffsiteKWh - z
			if math.Abs(r.DeficitKWh-wantDef) > 1e-9 {
				t.Fatalf("slot %d: deficit identity broken", r.Slot)
			}
			// Sanity: no NaNs, no negative power or delay.
			if math.IsNaN(r.TotalUSD) || r.PowerKW < 0 || r.DelayCost < 0 {
				t.Fatalf("slot %d: degenerate record %+v", r.Slot, r)
			}
			prevActive = r.Active
		}
		// Summary totals equal the sum of records.
		s := Summarize(sc, res)
		var grid float64
		for _, r := range res.Records {
			grid += r.GridKWh
		}
		if math.Abs(s.TotalGridKWh-grid) > 1e-6*(1+grid) {
			t.Fatalf("summary grid %v != records sum %v", s.TotalGridKWh, grid)
		}
	}
}
