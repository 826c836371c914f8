package coca

import (
	"testing"
)

// TestFacadeSurface walks every public constructor and helper the facade
// re-exports, pinning the wiring between the root package and the internal
// implementations.
func TestFacadeSurface(t *testing.T) {
	// Model constructors.
	if got := Opteron(); got.NumSpeeds() != 4 {
		t.Errorf("Opteron speeds = %d", got.NumSpeeds())
	}
	if got := PaperCluster(50); got.TotalServers() != 216000 {
		t.Errorf("PaperCluster servers = %d", got.TotalServers())
	}
	if got := HeterogeneousCluster(300, 6); got.TotalServers() != 300 {
		t.Errorf("HeterogeneousCluster servers = %d", got.TotalServers())
	}
	we, wd := P3Weights(100, 5, 0.05, 0.02)
	if we != 10 || wd != 2 {
		t.Errorf("P3Weights = %v, %v", we, wd)
	}

	// Traces.
	for name, tr := range map[string]*Trace{
		"fiu":   FIUYear(1),
		"msr":   MSRYear(1, 0.4),
		"price": CAISOYear(1),
		"solar": SolarYear(1),
		"wind":  WindYear(1),
	} {
		if tr.Len() != 8760 {
			t.Errorf("%s trace length %d", name, tr.Len())
		}
	}

	// Scenario + policies end to end at tiny scale.
	sc, _, err := BuildScenario(ScenarioOptions{Slots: 96, N: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewCOCA(COCAFromScenario(sc, ConstantV(1e4, 1, sc.Slots)))
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(sc, pol)
	if err != nil {
		t.Fatal(err)
	}
	if s := SummarizeWithTrueUp(sc, run, 0.02); s.Slots != 96 {
		t.Errorf("summary slots = %d", s.Slots)
	}
	if _, err := NewOPT(sc); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLookahead(sc, 48); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPerfectHP(sc, 48); err != nil {
		t.Fatal(err)
	}

	// Forecasters.
	fc := NoisyOracle{ErrFrac: 0.1, Seed: 3}.Forecast(sc.Workload)
	if m := ForecastMAPE(sc.Workload, fc); m <= 0 || m > 0.1 {
		t.Errorf("oracle MAPE = %v", m)
	}
	if _, err := NewPerfectHPWithForecast(sc, 48, fc); err != nil {
		t.Fatal(err)
	}
	if got := (SeasonalNaive{Period: 24}).Forecast(sc.Workload); got.Len() != sc.Workload.Len() {
		t.Error("seasonal naive length")
	}
	if got := (ProfileEWMA{Alpha: 0.5}).Forecast(sc.Workload); got.Len() != sc.Workload.Len() {
		t.Error("profile EWMA length")
	}

	// Controller with a GSD solver.
	cluster := HeterogeneousCluster(60, 6)
	ctrl, err := NewController(cluster, 0.01, ConstantV(1e4, 1, 4), 1, 1,
		&GSDSolver{Opts: GSDOptions{Delta: 1e6, MaxIters: 150, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctrl.Step(SlotEnv{LambdaRPS: 100, PriceUSDPerKWh: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Settle(out, 1)

	// Geo federation.
	site := GeoSite{
		Name: "a", Server: Opteron(), N: 50, Gamma: 0.95, PUE: 1,
		Price: CAISOYear(5),
		Portfolio: &Portfolio{
			OnsiteKW:   SolarYear(6),
			OffsiteKWh: WindYear(7),
			RECsKWh:    100, Alpha: 1,
		},
	}
	// Site names key the per-site series, so the second copy is renamed.
	site2 := site
	site2.Name = "b"
	sys, err := NewGeoSystem([]GeoSite{site, site2}, 0.01, 24)
	if err != nil {
		t.Fatal(err)
	}
	gout, err := sys.Step(50, 100)
	if err != nil {
		t.Fatal(err)
	}
	sys.Settle(gout)

	// Queueing distributions.
	if !DeterministicService(1).Valid() || !HyperexpService(1, 0.2).Valid() {
		t.Error("service constructors returned an invalid sampler")
	}

	// Experiments config.
	if DefaultExperiments().N != 216000 {
		t.Error("DefaultExperiments drifted")
	}
}
