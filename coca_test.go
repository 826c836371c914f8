package coca

import (
	"math"
	"strings"
	"testing"
)

// TestPublicAPIQuickstart walks the facade end to end the way the README's
// quickstart does: build a calibrated scenario, run COCA and the baselines,
// and check the paper's qualitative claims hold.
func TestPublicAPIQuickstart(t *testing.T) {
	sc, refGrid, err := BuildScenario(ScenarioOptions{Slots: 14 * 24, N: 500, Seed: 2012})
	if err != nil {
		t.Fatal(err)
	}
	if refGrid <= 0 {
		t.Fatal("no reference usage")
	}

	cocaPolicy, err := NewCOCA(COCAFromScenario(sc, ConstantV(1e5, 1, sc.Slots)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, cocaPolicy)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(sc, res)
	if s.AvgHourlyCostUSD <= 0 {
		t.Fatal("degenerate cost")
	}

	un, err := Run(sc, NewUnaware(sc))
	if err != nil {
		t.Fatal(err)
	}
	us := Summarize(sc, un)
	// Unaware is the unconstrained optimum: cheapest, but violates the
	// budget by construction (budget = 92% of its usage).
	if s.AvgHourlyCostUSD < us.AvgHourlyCostUSD*(1-1e-9) {
		t.Errorf("COCA %v beat the unconstrained optimum %v", s.AvgHourlyCostUSD, us.AvgHourlyCostUSD)
	}
	if us.BudgetUsedFraction <= 1 {
		t.Errorf("unaware within budget (%v) — calibration broken", us.BudgetUsedFraction)
	}
	if s.TotalGridKWh > us.TotalGridKWh {
		t.Error("COCA used more energy than the carbon-unaware baseline")
	}
}

func TestPublicAPIGSD(t *testing.T) {
	cluster := HeterogeneousCluster(120, 6)
	we, wd := P3Weights(100, 5, 0.05, 0.02)
	prob := &SlotProblem{
		Cluster:   cluster,
		LambdaRPS: 0.4 * cluster.MaxCapacityRPS(),
		We:        we, Wd: wd,
	}
	seq, err := SolveGSD(prob, GSDOptions{Delta: 1e8, MaxIters: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := SolveGSDDistributed(prob, GSDOptions{Delta: 1e8, MaxIters: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(seq.Solution.Value-dist.Solution.Value) > 0.05*(1+seq.Solution.Value) {
		t.Errorf("engines disagree: %v vs %v", seq.Solution.Value, dist.Solution.Value)
	}
}

func TestPublicAPIQueueingValidation(t *testing.T) {
	// Eq. (4)'s delay model against the event-driven M/G/1/PS simulator.
	res, err := SimulateQueue(QueueConfig{
		ArrivalRPS: 5, ServiceRPS: 10,
		Service: ExponentialService(1),
		Horizon: 20000, Warmup: 1000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := AnalyticMeanJobs(5, 10)
	if math.Abs(res.MeanJobs-want) > 0.15*want {
		t.Errorf("measured %v vs analytic %v", res.MeanJobs, want)
	}
}

// TestSimulateQueueRejectsUnstableServiceMean pins the stability rule on
// the service mean, not just the rates: λ = 6 against x = 10 looks stable,
// but a mean requirement of 2 makes ρ = λ·E[S]/x = 1.2. Without the check
// the run "measures" MeanJobs in the thousands — an artifact of the horizon
// where Eq. (4) has no steady state.
func TestSimulateQueueRejectsUnstableServiceMean(t *testing.T) {
	res, err := SimulateQueue(QueueConfig{
		ArrivalRPS: 6, ServiceRPS: 10,
		Service: ExponentialService(2),
		Horizon: 20000, Warmup: 1000, Seed: 7,
	})
	if err == nil {
		t.Fatalf("ρ = 1.2 queue accepted: MeanJobs %v", res.MeanJobs)
	}
	if !strings.Contains(err.Error(), "unstable") || !strings.Contains(err.Error(), "1.2") {
		t.Errorf("error %q does not name the unstable utilization 1.2", err)
	}
}
