package geo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/p3"
	"repro/internal/price"
	"repro/internal/renewable"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// stepNaive is the pre-memoization reference implementation of Step, kept
// verbatim (minus observability) as the bit-for-bit yardstick for the
// split hot path: golden tests require Step's allocation and operated
// outcome to hash identically to this loop, and its solve count is the
// baseline the memo counters are measured against. It re-solves every
// feasible site's P3 in every greedy round — O(Chunks·K) solves — and
// solves each loaded site once more in the operate pass; the memoized path
// must account for exactly those solves as p3Solves + memoHits.
//
// It does not advance the slot; Settle the returned outcome as usual.
func (sys *System) stepNaive(lambda, v float64) (StepOutcome, int, error) {
	if err := sys.guard(lambda, v); err != nil {
		return StepOutcome{}, 0, err
	}
	k := len(sys.Sites)
	solves := 0
	split := make([]float64, k)
	if lambda > 0 {
		chunk := lambda / Chunks
		cur := make([]float64, k) // current site values
		for c := 0; c < Chunks; c++ {
			best := -1
			bestDelta := math.Inf(1)
			for i := 0; i < k; i++ {
				if split[i]+chunk > sys.Sites[i].CapacityRPS() {
					continue
				}
				solves++
				delta := sys.siteValue(i, v, split[i]+chunk) - cur[i]
				if delta < bestDelta {
					best, bestDelta = i, delta
				}
			}
			if best < 0 {
				return StepOutcome{}, solves, errNoAbsorb
			}
			split[best] += chunk
			cur[best] += bestDelta
		}
	}
	out := StepOutcome{Sites: make([]SiteOutcome, k)}
	for i := 0; i < k; i++ {
		so := SiteOutcome{LoadRPS: split[i]}
		if split[i] > 0 {
			solves++
			sol, err := sys.siteProblem(i, v, split[i]).Solve()
			if err != nil {
				return StepOutcome{}, solves, fmt.Errorf("geo: site %s: %w", sys.Sites[i].Name, err)
			}
			sys.operate(i, &so, sol)
		}
		out.Sites[i] = so
		out.TotalCostUSD += so.CostUSD
		out.TotalGridKWh += so.GridKWh
	}
	return out, solves, nil
}

// siteValue returns site k's P3 optimum value at load mu (+Inf when the
// site cannot carry mu), the naive loop's site evaluation. The hot path
// additionally separates real solver errors from capacity infeasibility.
func (sys *System) siteValue(k int, v, mu float64) float64 {
	if mu == 0 {
		// An empty site powers down: zero P3 value.
		return 0
	}
	sol, err := sys.siteProblem(k, v, mu).Solve()
	if err != nil {
		return math.Inf(1)
	}
	return sol.Value
}

// makeSitesK builds a deterministic K-site federation with staggered
// price levels, fleet sizes and on-site renewables, so splits are
// non-trivial at any K.
func makeSitesK(k, slots int) []Site {
	sites := make([]Site, k)
	for i := range sites {
		p := price.CAISOYear(uint64(i + 1))
		scale := 0.4 + 0.15*float64(i%5)
		for j := range p.Values {
			p.Values[j] *= scale
		}
		sites[i] = Site{
			Name:   fmt.Sprintf("s%02d", i),
			Server: dcmodel.Opteron(),
			N:      60 + 10*(i%4),
			Gamma:  0.95,
			PUE:    1,
			Price:  p,
			Portfolio: &renewable.Portfolio{
				OnsiteKW:   trace.Constant("r", float64(i%3), slots),
				OffsiteKWh: trace.Constant("f", 2, slots),
				RECsKWh:    float64(slots) * 3,
				Alpha:      1,
			},
		}
	}
	return sites
}

// hashOutcome folds a StepOutcome into an FNV-1a digest over the
// little-endian IEEE-754 bits of every computed number — the recipe of
// every golden result hash in the repository, so "bit-identical" means the
// same thing here and in bench/.
func hashOutcome(h interface{ Write([]byte) (int, error) }, out StepOutcome) {
	put := func(vs ...float64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	put(out.TotalCostUSD, out.TotalGridKWh)
	for _, so := range out.Sites {
		put(so.LoadRPS, float64(so.Speed), float64(so.Active),
			so.PowerKW, so.GridKWh, so.DelayCost, so.CostUSD)
	}
}

// TestGoldenSplitParity pins the split hot path bit-for-bit: the naive
// reference loop and the memoized path must produce FNV-identical outcomes
// slot after slot, with the deficit queues fed back so any drift compounds
// and is caught.
func TestGoldenSplitParity(t *testing.T) {
	for _, k := range []int{4, 16} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			const slots = 12
			mk := func() *System {
				sys, err := NewSystem(makeSitesK(k, slots), 0.005, slots)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			naiveSys, memoSys := mk(), mk()
			hn, hm := fnv.New64a(), fnv.New64a()
			cap := naiveSys.TotalCapacityRPS()
			for tt := 0; tt < slots; tt++ {
				lambda := cap * (0.15 + 0.6*float64(tt)/slots)
				const v = 120
				outN, _, err := naiveSys.stepNaive(lambda, v)
				if err != nil {
					t.Fatal(err)
				}
				naiveSys.Settle(outN)
				outM, err := memoSys.Step(lambda, v)
				if err != nil {
					t.Fatal(err)
				}
				memoSys.Settle(outM)
				hashOutcome(hn, outN)
				hashOutcome(hm, outM)
			}
			naive, memo := hn.Sum64(), hm.Sum64()
			if memo != naive {
				t.Errorf("memoized split hash %016x != naive reference %016x", memo, naive)
			}
			t.Logf("golden split hash fnv1a:%016x (naive = memo)", naive)
		})
	}
}

// TestGoldenSplitHash pins the memoized split absolutely: 96 slots of a
// 16-site federation of 500–800-server sites under a sinusoidal load, with
// every step settled so the deficit queues feed back into later splits.
// Each step folds its totals, then every site's load, speed, active count,
// cost and grid draw.
func TestGoldenSplitHash(t *testing.T) {
	const want = "fnv1a:4ebecbf49ca54a0c"
	if got := goldenSplitHash(t, (*System).Step); got != want {
		t.Errorf("split hash = %s, want %s (split arithmetic drifted)", got, want)
	}
}

// TestGoldenProportionalSplitHash pins the capacity-proportional baseline
// on the same federation and recipe as TestGoldenSplitHash.
func TestGoldenProportionalSplitHash(t *testing.T) {
	const want = "fnv1a:aa4b0cc57079de17"
	if got := goldenSplitHash(t, (*System).ProportionalSplit); got != want {
		t.Errorf("proportional split hash = %s, want %s (split arithmetic drifted)", got, want)
	}
}

// goldenSplitHash steps the golden federation of TestGoldenSplitHash with
// step, settling every slot, and returns the FNV-1a digest.
func goldenSplitHash(t *testing.T, step func(*System, float64, float64) (StepOutcome, error)) string {
	t.Helper()
	const sites, slots = 16, 96
	ss := makeSitesK(sites, slots)
	for i := range ss {
		ss[i].N = 500 + 100*(i%4)
		ss[i].Portfolio.OffsiteKWh = trace.Constant("f", 20, slots)
		ss[i].Portfolio.RECsKWh = float64(slots) * 30
	}
	sys, err := NewSystem(ss, 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	put := func(vs ...float64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	capRPS := sys.TotalCapacityRPS()
	for tt := 0; tt < slots; tt++ {
		out, err := step(sys, capRPS*(0.35+0.3*math.Sin(float64(tt)/7)), 120)
		if err != nil {
			t.Fatal(err)
		}
		put(out.TotalCostUSD, out.TotalGridKWh)
		for _, so := range out.Sites {
			put(so.LoadRPS, float64(so.Speed), float64(so.Active), so.CostUSD, so.GridKWh)
		}
		sys.Settle(out)
	}
	return fmt.Sprintf("fnv1a:%016x", h.Sum64())
}

// TestSplitSolveAccounting pins the memo table's exact bookkeeping: every
// P3 solve the naive loop pays is either a fresh solve or a memo hit on
// the memoized path (p3_solves + memo_hits == naive solves), and at K=16
// the fresh-solve count drops at least 5×.
func TestSplitSolveAccounting(t *testing.T) {
	const k, slots = 16, 6
	naiveSys, err := NewSystem(makeSitesK(k, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	memoSys, err := NewSystem(makeSitesK(k, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	memoSys.Instrument(telemetry.NewFleetMetrics(reg, "geo"))
	capRPS := naiveSys.TotalCapacityRPS()
	var naiveSolves int
	for tt := 0; tt < slots; tt++ {
		lambda := capRPS * (0.2 + 0.1*float64(tt))
		outN, solves, err := naiveSys.stepNaive(lambda, 120)
		if err != nil {
			t.Fatal(err)
		}
		naiveSys.Settle(outN)
		naiveSolves += solves
		outM, err := memoSys.Step(lambda, 120)
		if err != nil {
			t.Fatal(err)
		}
		memoSys.Settle(outM)
	}
	snap := reg.Snapshot()
	memoSolves := snap.Counters["geo.p3_solves"]
	memoHits := snap.Counters["geo.memo_hits"]
	if got := memoSolves + memoHits; got != float64(naiveSolves) {
		t.Errorf("p3_solves (%v) + memo_hits (%v) = %v, want the naive loop's %d solves exactly",
			memoSolves, memoHits, got, naiveSolves)
	}
	if memoSolves*5 > float64(naiveSolves) {
		t.Errorf("memoized path spent %v P3 solves vs naive %d — want ≥ 5× fewer",
			memoSolves, naiveSolves)
	}
	if errs := snap.Counters["geo.solve_errors"]; errs != 0 {
		t.Errorf("solve_errors = %v on a healthy run", errs)
	}
	t.Logf("solves/step: naive %.1f, memoized %.1f (%.1fx), hits/step %.1f",
		float64(naiveSolves)/slots, memoSolves/slots,
		float64(naiveSolves)/memoSolves, memoHits/slots)
}

// TestSolveErrorSurfaced pins the infeasibility/error distinction: a site
// corrupted after construction (a negative N, with a negative γ keeping its
// capacity positive so the split still solves it) passes the load guards,
// reaches the per-site solver, and must surface as a real error
// (p3.ErrInvalid) counted in geo.solve_errors — not be masked as "site full"
// the way the pre-memoization siteValue did.
func TestSolveErrorSurfaced(t *testing.T) {
	const slots = 4
	sys, err := NewSystem(makeSitesK(3, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sys.Instrument(telemetry.NewFleetMetrics(reg, "geo"))
	sys.Sites[0].N, sys.Sites[0].Gamma = -sys.Sites[0].N, -sys.Sites[0].Gamma
	_, err = sys.Step(0.3*sys.TotalCapacityRPS(), 120)
	if err == nil {
		t.Fatal("corrupted site stepped without error")
	}
	if !errors.Is(err, p3.ErrInvalid) {
		t.Errorf("error %v does not wrap p3.ErrInvalid", err)
	}
	if !strings.Contains(err.Error(), "site s00") {
		t.Errorf("error %q does not name the failing site", err)
	}
	if got := reg.Snapshot().Counters["geo.solve_errors"]; got != 1 {
		t.Errorf("geo.solve_errors = %v, want 1", got)
	}
	// Capacity infeasibility must NOT count as a solver error.
	if got := reg.Snapshot().Counters["geo.steps"]; got != 0 {
		t.Errorf("failed step observed as settled: steps = %v", got)
	}
}

// TestProportionalSolveErrorCounted pins the shared split's failure path:
// a corrupted site's solver error reaches the caller naming the site and
// counts once into solve_errors, on the proportional split as on Step.
func TestProportionalSolveErrorCounted(t *testing.T) {
	const slots = 4
	sys, err := NewSystem(makeSitesK(3, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sys.Instrument(telemetry.NewFleetMetrics(reg, "geo"))
	sys.Sites[1].N, sys.Sites[1].Gamma = -sys.Sites[1].N, -sys.Sites[1].Gamma
	_, err = sys.ProportionalSplit(0.3*sys.TotalCapacityRPS(), 120)
	if !errors.Is(err, p3.ErrInvalid) || !strings.Contains(err.Error(), "site s01") {
		t.Fatalf("err = %v, want p3.ErrInvalid naming site s01", err)
	}
	if got := reg.Snapshot().Counters["geo.solve_errors"]; got != 1 {
		t.Errorf("geo.solve_errors = %v, want 1", got)
	}
}

// TestNoSiteCanAbsorbChunk forces the stranded-load error: two sites whose
// per-site capacities are non-integer multiples of the chunk size can
// absorb at most 99 of the 100 chunks of a load equal to the federation's
// aggregate capacity. Both the memoized and the naive path must fail the
// same way, without counting a solver error.
func TestNoSiteCanAbsorbChunk(t *testing.T) {
	const slots = 4
	sites := makeSitesK(2, slots)
	sites[0].N = 1
	sites[1].N = 2 // capacities split 1:2 → 33.3 and 66.7 chunks
	sys, err := NewSystem(sites, 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sys.Instrument(telemetry.NewFleetMetrics(reg, "geo"))
	lambda := sys.TotalCapacityRPS()
	_, err = sys.Step(lambda, 120)
	if !errors.Is(err, errNoAbsorb) {
		t.Fatalf("want the no-absorb error, got %v", err)
	}
	if got := reg.Snapshot().Counters["geo.solve_errors"]; got != 0 {
		t.Errorf("stranded load counted as solver error: %v", got)
	}
	if _, _, err := sys.stepNaive(lambda, 120); !errors.Is(err, errNoAbsorb) {
		t.Fatalf("naive reference disagrees: %v", err)
	}
}

// TestSettleDeficitAccounting pins Settle's per-site queue recursion
// q ← [q + grid − α·offsite − z]^+ against hand-computed expectations.
func TestSettleDeficitAccounting(t *testing.T) {
	const slots = 8
	sites := makeSitesK(2, slots)
	// Site 0: starved budget (no offsite, one REC total) so its queue grows
	// by its full grid draw minus the tiny allowance. Site 1: generous.
	sites[0].Portfolio.OffsiteKWh = trace.Constant("f", 0, slots)
	sites[0].Portfolio.RECsKWh = 1
	sys, err := NewSystem(sites, 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0}
	z := []float64{1.0 / slots, sites[1].Portfolio.RECsKWh / slots}
	offsite := []float64{0, 2}
	for tt := 0; tt < 3; tt++ {
		out, err := sys.Step(500, 120)
		if err != nil {
			t.Fatal(err)
		}
		sys.Settle(out)
		for i := range want {
			want[i] = math.Max(0, want[i]+out.Sites[i].GridKWh-
				sites[i].Portfolio.Alpha*offsite[i]-z[i])
			if got := sys.Queue(i); math.Abs(got-want[i]) > 1e-9 {
				t.Fatalf("slot %d site %d queue = %v, want %v", tt, i, got, want[i])
			}
		}
	}
	if sys.Queue(0) == 0 {
		t.Error("starved site's queue never grew — accounting test is vacuous")
	}
	if sys.Slot() != 3 {
		t.Errorf("slot = %d after 3 settles, want 3", sys.Slot())
	}
}

// TestProportionalSplitGuards pins the hoisted shared validation: the
// baseline must reject exactly what Step rejects (it previously accepted
// negative loads and exhausted horizons).
func TestProportionalSplitGuards(t *testing.T) {
	const slots = 2
	sys, err := NewSystem(makeSitesK(2, slots), 0.005, slots)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ProportionalSplit(-1, 120); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := sys.ProportionalSplit(sys.TotalCapacityRPS()+1, 120); err == nil {
		t.Error("over-capacity load accepted")
	}
	for tt := 0; tt < slots; tt++ {
		out, err := sys.ProportionalSplit(100, 120)
		if err != nil {
			t.Fatal(err)
		}
		sys.Settle(out)
	}
	if _, err := sys.ProportionalSplit(100, 120); err == nil {
		t.Error("step beyond horizon accepted")
	}
	// Step shares the same guard set (already covered elsewhere for load
	// bounds): the horizon case must agree with ProportionalSplit.
	if _, err := sys.Step(100, 120); err == nil {
		t.Error("Step beyond horizon accepted")
	}
}

// benchGeoSystem builds a K-site system with a long horizon for the
// split benchmarks; stepping without settling keeps the slot fixed so the
// horizon never exhausts mid-measurement.
func benchGeoSystem(b *testing.B, k int) (*System, float64) {
	b.Helper()
	sys, err := NewSystem(makeSitesK(k, 64), 0.005, 64)
	if err != nil {
		b.Fatal(err)
	}
	return sys, 0.4 * sys.TotalCapacityRPS()
}

// BenchmarkGeoStepNaive is the pre-memoization reference cost (O(Chunks·K)
// P3 solves per slot) — the yardstick for the memoized path below.
func BenchmarkGeoStepNaive(b *testing.B) {
	sys, lambda := benchGeoSystem(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.stepNaive(lambda, 120); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeoStepMemo is the memoized sequential split.
func BenchmarkGeoStepMemo(b *testing.B) {
	sys, lambda := benchGeoSystem(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Step(lambda, 120); err != nil {
			b.Fatal(err)
		}
	}
}
