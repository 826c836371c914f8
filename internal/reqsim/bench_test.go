package reqsim

import "testing"

// benchCfg is the standard bench scenario: ρ = 0.7 exponential service —
// the mid-load regime the fleet actually operates in. One run is ~2·λ·H
// events (arrival + completion per job).
func benchCfg(horizon float64) Config {
	return Config{
		ArrivalRPS: 7, ServiceRPS: 10, Service: ExponentialService(1),
		Horizon: horizon, Warmup: horizon / 20, Seed: 1,
	}
}

// BenchmarkReqsimEngine measures the core engine: requests/sec is the
// headline number (the issue's floor is 1e6 on one core).
func BenchmarkReqsimEngine(b *testing.B) {
	cfg := benchCfg(10000) // ~140k events, ~70k requests per run
	eng := NewEngine()
	if _, err := eng.Run(cfg, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	var requests int64
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
		requests += int64(res.Arrived)
	}
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(events)/sec, "events/s")
		b.ReportMetric(float64(requests)/sec, "requests/s")
	}
	if events > 0 {
		b.ReportMetric(sec*1e9/float64(events), "ns/event")
	}
}

// BenchmarkReqsimEngineTape adds the percentile tape — the configuration
// the slot replayers run — to price the Observe/Quantile overhead.
func BenchmarkReqsimEngineTape(b *testing.B) {
	cfg := benchCfg(10000)
	eng := NewEngine()
	var tape SampleTape
	if _, err := eng.Run(cfg, &tape); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(cfg, &tape)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)/sec, "events/s")
	}
}

// BenchmarkReqsimHeavyTail prices the Pareto sampler (one Pow per draw).
func BenchmarkReqsimHeavyTail(b *testing.B) {
	cfg := Config{
		ArrivalRPS: 7, ServiceRPS: 10, Service: ParetoService(1, 1.8),
		Horizon: 10000, Warmup: 500, Seed: 1,
	}
	eng := NewEngine()
	if _, err := eng.Run(cfg, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := eng.Run(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(events)/sec, "events/s")
	}
}

// BenchmarkReqsimOracle runs the test oracle (oracle_test.go) on the identical scenario
// so the engine's speedup is a number in the bench log, not a claim.
func BenchmarkReqsimOracle(b *testing.B) {
	cfg := oracleConfig{
		ArrivalRPS: 7, ServiceRPS: 10, Service: oracleExponentialService(1),
		Horizon: 10000, Warmup: 500, Seed: 1,
	}
	if _, err := oracleSimulate(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracleSimulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReqsimBursty runs the on/off arm FleetReplayer uses (1.8×/0.2×
// the mean rate, 30 s mean phases) at mean ρ = 0.7, so every ON phase
// overloads the server (ρ_on = 1.26) and the queue builds thousands deep —
// the regime that dominates the fleet-replay workload, where the two
// ρ = 0.7 Poisson benchmarks above keep the queue a few entries deep.
func BenchmarkReqsimBursty(b *testing.B) {
	const lambda = 250
	cfg := Config{
		Arrivals: OnOffArrivals(1.8*lambda, 0.2*lambda, 30, 30), ServiceRPS: lambda / 0.7,
		Service: ExponentialService(1), Horizon: 300, Warmup: 30, Seed: 1,
	}
	eng := NewEngine()
	res, err := eng.Run(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		if res, err = eng.Run(cfg, nil); err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(events), "ns/event")
	}
	b.ReportMetric(float64(res.MaxInSystem), "max_in_system")
}
