package geo

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/gsd"
	"repro/internal/price"
	"repro/internal/renewable"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// makeFleetSites builds a deterministic K-site fleet of heterogeneous
// clusters: groupsPerSite groups of serversPerGroup servers each, staggered
// price levels and renewables, so splits and solves are non-trivial at any
// scale.
func makeFleetSites(k, groupsPerSite, serversPerGroup, slots int) []FleetSite {
	sites := make([]FleetSite, k)
	for i := range sites {
		p := price.CAISOYear(uint64(i + 1))
		scale := 0.4 + 0.15*float64(i%5)
		for j := range p.Values {
			p.Values[j] *= scale
		}
		cl := dcmodel.HeterogeneousCluster(groupsPerSite*serversPerGroup, groupsPerSite)
		sites[i] = FleetSite{
			Name:    fmt.Sprintf("f%03d", i),
			Cluster: cl,
			Price:   p,
			Portfolio: &renewable.Portfolio{
				OnsiteKW:   trace.Constant("r", float64(i%3), slots),
				OffsiteKWh: trace.Constant("f", 20, slots),
				RECsKWh:    float64(slots) * 30,
				Alpha:      1,
			},
		}
	}
	return sites
}

// hashFleetOutcome folds a FleetStepOutcome into the FNV-1a digest the
// bench gate uses: little-endian IEEE-754 bits of every computed number.
func hashFleetOutcome(h interface{ Write([]byte) (int, error) }, out FleetStepOutcome) {
	put := func(vs ...float64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	put(out.TotalCostUSD, out.TotalGridKWh)
	for _, so := range out.Sites {
		put(so.LoadRPS, float64(so.Active), so.PowerKW,
			so.GridKWh, so.DelayCost, so.CostUSD, so.Value)
	}
}

// runFleetHash steps a fresh fleet for `slots` slots at the given worker
// count and returns the FNV-1a digest over every outcome and the final
// deficit-queue lengths.
func runFleetHash(t testing.TB, sites []FleetSite, slots, iters, workers int) uint64 {
	t.Helper()
	f, err := NewFleet(sites, 0.005, slots, gsd.Options{
		Delta: 1e4, MaxIters: iters, Seed: 2013,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetWorkers(workers); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	capRPS := f.TotalCapacityRPS()
	for tt := 0; tt < slots; tt++ {
		lambda := capRPS * (0.15 + 0.5*float64(tt)/float64(slots))
		out, err := f.Step(lambda, 5e5)
		if err != nil {
			t.Fatal(err)
		}
		hashFleetOutcome(h, out)
		f.Settle(out)
	}
	var buf [8]byte
	for i := range sites {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f.Queue(i)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestFleetGoldenParityWorkers pins the fleet step bit-for-bit: sequential
// (workers=1) and parallel (workers=8) runs over the same sites must both
// reproduce an absolute digest, deficit feedback included, so any
// schedule-dependent or arithmetic drift compounds and is caught. The
// second cell is 192 groups over 16 sites at the 60-iteration GSD budget.
func TestFleetGoldenParityWorkers(t *testing.T) {
	cells := []struct {
		sites, groups, slots, iters int
		want                        uint64
	}{
		{8, 12, 6, 40, 0x679ce3825ff152ac},
		{16, 12, 4, 60, 0x71643c57b1334572},
	}
	for _, c := range cells {
		for _, workers := range []int{1, 8} {
			got := runFleetHash(t, makeFleetSites(c.sites, c.groups, 10, c.slots), c.slots, c.iters, workers)
			if got != c.want {
				t.Errorf("%d×%d fleet at %d workers: hash fnv1a:%016x, want fnv1a:%016x",
					c.sites*c.groups, c.sites, workers, got, c.want)
			}
		}
	}
}

// TestFleetScale256Sites10kGroups is the acceptance-scale exercise: 256
// sites × 39 groups = 9,984 groups (99,840 servers at 10 servers/group),
// stepped with a wide worker pool — under -race in CI — and pinned to an
// absolute digest at one worker and at 32.
func TestFleetScale256Sites10kGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale exercise skipped in -short")
	}
	const (
		sites, groups, servers = 256, 39, 10
		slots, iters           = 4, 60
		want                   = 0xf3f089ec2902816e
	)
	for _, workers := range []int{1, 32} {
		got := runFleetHash(t, makeFleetSites(sites, groups, servers, slots), slots, iters, workers)
		if got != want {
			t.Errorf("256-site fleet at %d workers: hash fnv1a:%016x, want fnv1a:%016x", workers, got, uint64(want))
		}
	}
}

// TestFleetSetWorkersRejectsNegative pins the cliutil.WorkersFor rule:
// negatives are an explicit error, never a silent fallback.
func TestFleetSetWorkersRejectsNegative(t *testing.T) {
	const slots = 4
	f, err := NewFleet(makeFleetSites(2, 3, 5, slots), 0.005, slots, gsd.Options{Delta: 1e4, MaxIters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetWorkers(-1); err == nil || !strings.Contains(err.Error(), "geo.Fleet.SetWorkers") {
		t.Fatalf("Fleet.SetWorkers(-1) = %v, want named error", err)
	}
	if err := f.SetWorkers(0); err != nil {
		t.Fatalf("Fleet.SetWorkers(0): %v", err)
	}
}

// TestFleetValidation covers the constructor and step guards.
func TestFleetValidation(t *testing.T) {
	const slots = 4
	sites := makeFleetSites(2, 3, 5, slots)
	if _, err := NewFleet(nil, 0.005, slots, gsd.Options{}); err == nil {
		t.Error("NewFleet with no sites should fail")
	}
	for _, beta := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := NewFleet(sites, beta, slots, gsd.Options{}); err == nil {
			t.Errorf("NewFleet with beta %v should fail", beta)
		}
	}
	if _, err := NewFleet(sites, 0.005, 0, gsd.Options{}); err == nil {
		t.Error("NewFleet with zero horizon should fail")
	}
	bad := makeFleetSites(2, 3, 5, slots)
	bad[1].Cluster = nil
	if _, err := NewFleet(bad, 0.005, slots, gsd.Options{}); err == nil {
		t.Error("NewFleet with nil cluster should fail")
	}
	// A NaN or infinite α or REC purchase would turn the site's deficit
	// queue into NaN after one slot.
	for _, mutate := range []func(*renewable.Portfolio){
		func(p *renewable.Portfolio) { p.Alpha = math.NaN() },
		func(p *renewable.Portfolio) { p.Alpha = math.Inf(1) },
		func(p *renewable.Portfolio) { p.RECsKWh = math.NaN() },
		func(p *renewable.Portfolio) { p.RECsKWh = math.Inf(1) },
	} {
		bad := makeFleetSites(2, 3, 5, slots)
		mutate(bad[0].Portfolio)
		if _, err := NewFleet(bad, 0.005, slots, gsd.Options{}); err == nil {
			t.Errorf("NewFleet accepted site 0's portfolio %+v", *bad[0].Portfolio)
		}
	}
	f, err := NewFleet(sites, 0.005, slots, gsd.Options{Delta: 1e4, MaxIters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Step(-1, 5e5); err == nil {
		t.Error("negative load should fail")
	}
	if _, err := f.Step(2*f.TotalCapacityRPS(), 5e5); err == nil {
		t.Error("over-capacity load should fail")
	}
	for tt := 0; tt < slots; tt++ {
		out, err := f.Step(0.3*f.TotalCapacityRPS(), 5e5)
		if err != nil {
			t.Fatal(err)
		}
		f.Settle(out)
	}
	if _, err := f.Step(1, 5e5); err == nil {
		t.Error("stepping past the horizon should fail")
	}
}

// TestFleetInstrumentedParity pins the observability acceptance bound:
// attaching FleetMetrics must not change outcomes. An instrumented run
// hashes bit-identically to a bare one, and the labeled series agree
// exactly with the outcomes that produced them (same values folded in the
// same order, so float sums match bit for bit).
func TestFleetInstrumentedParity(t *testing.T) {
	const (
		slots, iters, workers = 4, 30, 4
		k, groups, servers    = 4, 6, 8
	)
	base := runFleetHash(t, makeFleetSites(k, groups, servers, slots), slots, iters, workers)

	sites := makeFleetSites(k, groups, servers, slots)
	f, err := NewFleet(sites, 0.005, slots, gsd.Options{Delta: 1e4, MaxIters: iters, Seed: 2013})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetWorkers(workers); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	f.Instrument(telemetry.NewFleetMetrics(reg, "fleet"))

	h := fnv.New64a()
	var wantCost, wantGrid float64
	wantLoad := make(map[string]float64, k)
	capRPS := f.TotalCapacityRPS()
	for tt := 0; tt < slots; tt++ {
		lambda := capRPS * (0.15 + 0.5*float64(tt)/float64(slots))
		out, err := f.Step(lambda, 5e5)
		if err != nil {
			t.Fatal(err)
		}
		hashFleetOutcome(h, out)
		wantCost += out.TotalCostUSD
		wantGrid += out.TotalGridKWh
		for i, so := range out.Sites {
			wantLoad[sites[i].Name] += so.LoadRPS
		}
		f.Settle(out)
	}
	var buf [8]byte
	for i := range sites {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f.Queue(i)))
		h.Write(buf[:])
	}
	if got := h.Sum64(); got != base {
		t.Fatalf("instrumentation changed outcomes: bare %016x instrumented %016x", base, got)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["fleet.steps"]; got != slots {
		t.Errorf("fleet.steps = %v, want %d", got, slots)
	}
	if got := snap.Counters["fleet.total_usd"]; got != wantCost {
		t.Errorf("fleet.total_usd = %v, want %v", got, wantCost)
	}
	if got := snap.Counters["fleet.grid_kwh"]; got != wantGrid {
		t.Errorf("fleet.grid_kwh = %v, want %v", got, wantGrid)
	}
	if got := snap.Histograms["fleet.step_seconds"].Count; got != slots {
		t.Errorf("fleet.step_seconds count = %d, want %d", got, slots)
	}
	load := snap.LabeledCounters["fleet.site.load_rps"]
	deficit := snap.LabeledGauges["fleet.site.deficit_kwh"]
	for i, s := range sites {
		if got, ok := sample(load, s.Name); !ok || got != wantLoad[s.Name] {
			t.Errorf("fleet.site.load_rps{site=%q} = %v (ok=%v), want %v", s.Name, got, ok, wantLoad[s.Name])
		}
		if got, ok := sample(deficit, s.Name); !ok || got != f.Queue(i) {
			t.Errorf("fleet.site.deficit_kwh{site=%q} = %v (ok=%v), want %v", s.Name, got, ok, f.Queue(i))
		}
	}
	// The per-shard solver stats flow through Opts.Metrics: any site that
	// carried load ran at least one GSD solve under its own label.
	shardSolves := snap.LabeledCounters["fleet.shard.solves"]
	for _, s := range sites {
		if wantLoad[s.Name] == 0 {
			continue
		}
		if got, ok := sample(shardSolves, s.Name); !ok || got <= 0 {
			t.Errorf("fleet.shard.solves{site=%q} = %v (ok=%v), want > 0", s.Name, got, ok)
		}
	}
}

// TestFleetQueueSettle checks the deficit accounting: a site drawing more
// grid energy than its off-site generation accumulates deficit.
func TestFleetQueueSettle(t *testing.T) {
	const slots = 4
	sites := makeFleetSites(2, 3, 5, slots)
	for i := range sites {
		// No renewables at all: every kWh is grid draw.
		sites[i].Portfolio.OnsiteKW = trace.Constant("r", 0, slots)
		sites[i].Portfolio.OffsiteKWh = trace.Constant("f", 0, slots)
		sites[i].Portfolio.RECsKWh = 0
	}
	f, err := NewFleet(sites, 0.005, slots, gsd.Options{Delta: 1e4, MaxIters: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Step(0.4*f.TotalCapacityRPS(), 5e5)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalGridKWh <= 0 {
		t.Fatalf("expected positive grid draw, got %v", out.TotalGridKWh)
	}
	f.Settle(out)
	for i := range sites {
		if f.Queue(i) <= 0 {
			t.Errorf("site %d: deficit queue %v, want > 0", i, f.Queue(i))
		}
	}
	if f.Slot() != 1 {
		t.Errorf("slot = %d after one settle, want 1", f.Slot())
	}
}

// TestStepRejectsNonFiniteInputs pins the load and V guards both
// federation types share. A NaN λ fails both comparisons of a plain range
// check, so before the guard it passed validation and settled as a
// zero-cost, zero-draw slot with a NaN load; a negative V used to step a
// System to a plausible cost, and a NaN or infinite V failed late with a
// misleading "no site can absorb" or "no feasible configuration" error.
// Every such step must now fail with the guard's own error.
func TestStepRejectsNonFiniteInputs(t *testing.T) {
	const slots = 4
	nan, inf := math.NaN(), math.Inf(1)
	fleet, err := NewFleet(makeFleetSites(2, 3, 5, slots), 0.005, slots, gsd.Options{Delta: 1e4, MaxIters: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(makeSitesK(2, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	fleetLoad, sysLoad := 0.3*fleet.TotalCapacityRPS(), 0.3*sys.TotalCapacityRPS()
	type stepCase struct {
		name    string
		step    func() error
		wantErr string // substring of the error; "" wants success
	}
	const badLoad, badV = "not finite", "control parameter V"
	cases := []stepCase{
		{"fleet NaN load", func() error { _, err := fleet.Step(nan, 5e5); return err }, badLoad},
		{"fleet +Inf load", func() error { _, err := fleet.Step(inf, 5e5); return err }, badLoad},
		{"fleet -Inf load", func() error { _, err := fleet.Step(-inf, 5e5); return err }, badLoad},
		{"system NaN load", func() error { _, err := sys.Step(nan, 100); return err }, badLoad},
		{"system +Inf load", func() error { _, err := sys.Step(inf, 100); return err }, badLoad},
		{"system -Inf load", func() error { _, err := sys.Step(-inf, 100); return err }, badLoad},
		{"system proportional NaN load", func() error { _, err := sys.ProportionalSplit(nan, 100); return err }, badLoad},
	}
	for _, v := range []float64{nan, inf, -inf, -5} {
		cases = append(cases,
			stepCase{fmt.Sprintf("fleet V=%v", v), func() error { _, err := fleet.Step(fleetLoad, v); return err }, badV},
			stepCase{fmt.Sprintf("system V=%v", v), func() error { _, err := sys.Step(sysLoad, v); return err }, badV},
			stepCase{fmt.Sprintf("system proportional V=%v", v), func() error { _, err := sys.ProportionalSplit(sysLoad, v); return err }, badV})
	}
	cases = append(cases,
		stepCase{"fleet finite", func() error { _, err := fleet.Step(fleetLoad, 5e5); return err }, ""},
		stepCase{"system finite", func() error { _, err := sys.Step(sysLoad, 100); return err }, ""},
		stepCase{"system proportional finite", func() error { _, err := sys.ProportionalSplit(sysLoad, 100); return err }, ""})
	for _, tc := range cases {
		err := tc.step()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want an error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestDuplicateSiteNamesRejected pins the name-uniqueness rule both
// engines share: per-site metric and replay series are keyed by site
// name, so two sites named alike would fold into one series.
func TestDuplicateSiteNamesRejected(t *testing.T) {
	const slots = 4
	for _, tc := range []struct {
		name  string
		dupOf []int // dupOf[i] >= 0 renames site i after site dupOf[i]
		ok    bool
	}{
		{"distinct", []int{-1, -1, -1}, true},
		{"adjacent", []int{-1, 0, -1}, false},
		{"apart", []int{-1, -1, 0}, false},
		{"last pair", []int{-1, -1, 1}, false},
	} {
		sysSites := makeSitesK(len(tc.dupOf), slots)
		fleetSites := makeFleetSites(len(tc.dupOf), 3, 5, slots)
		for i, j := range tc.dupOf {
			if j >= 0 {
				sysSites[i].Name = sysSites[j].Name
				fleetSites[i].Name = fleetSites[j].Name
			}
		}
		_, sysErr := NewSystem(sysSites, 0.005, slots)
		_, fleetErr := NewFleet(fleetSites, 0.005, slots, gsd.Options{})
		for engine, err := range map[string]error{"NewSystem": sysErr, "NewFleet": fleetErr} {
			if tc.ok && err != nil {
				t.Errorf("%s: %s rejected distinct names: %v", tc.name, engine, err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "duplicate site name")) {
				t.Errorf("%s: %s = %v, want a duplicate site name error", tc.name, engine, err)
			}
		}
	}
}

// sample returns the snapshot's value for the label tuple, if present.
func sample(s telemetry.LabeledSnapshot, values ...string) (float64, bool) {
	for _, ser := range s.Series {
		if slices.Equal(ser.Values, values) {
			return ser.Value, true
		}
	}
	return 0, false
}
