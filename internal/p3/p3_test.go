package p3

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/numopt"
	"repro/internal/stats"
)

// tinyCluster builds nGroups groups of one Opteron each — small enough for
// Enumerate.
func tinyCluster(nGroups int) *dcmodel.Cluster {
	groups := make([]dcmodel.Group, nGroups)
	for i := range groups {
		groups[i] = dcmodel.Group{Type: dcmodel.Opteron(), N: 1}
	}
	return &dcmodel.Cluster{Groups: groups, Gamma: 0.95, PUE: 1}
}

func TestEnumerateFindsObviousOptimum(t *testing.T) {
	// One group, zero load: everything off is optimal.
	c := tinyCluster(1)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 0, We: 1, Wd: 0.01}
	sol, err := Enumerate(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Speeds[0] != 0 || sol.Value != 0 {
		t.Errorf("zero-load optimum: speeds=%v value=%v", sol.Speeds, sol.Value)
	}
}

func TestEnumerateInfeasible(t *testing.T) {
	c := tinyCluster(1)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 100, We: 1, Wd: 0.01}
	if _, err := Enumerate(p); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestEnumerateTooLarge(t *testing.T) {
	c := tinyCluster(12) // 5^12 ≈ 2.4e8 > limit
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 1, We: 1, Wd: 0.01}
	if _, err := Enumerate(p); err != ErrTooLarge {
		t.Errorf("want ErrTooLarge, got %v", err)
	}
}

func TestHomogeneousSolveBasics(t *testing.T) {
	hp := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 100, Gamma: 0.95, PUE: 1,
		LambdaRPS: 300, We: 0.05, Wd: 0.01,
	}
	sol, err := hp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Active < 1 || sol.Active > 100 {
		t.Fatalf("active = %d out of range", sol.Active)
	}
	if sol.Speed < 1 || sol.Speed > 4 {
		t.Fatalf("speed = %d out of range", sol.Speed)
	}
	// Feasibility: per-server load within γ·x.
	per := 300.0 / float64(sol.Active)
	if per > 0.95*hp.Type.Rate(sol.Speed)+1e-9 {
		t.Errorf("per-server load %v exceeds γ·x = %v", per, 0.95*hp.Type.Rate(sol.Speed))
	}
	if sol.PowerKW <= 0 || math.IsInf(sol.Value, 0) {
		t.Errorf("degenerate solution: %+v", sol)
	}
}

func TestHomogeneousZeroLoadTurnsOff(t *testing.T) {
	hp := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 50, Gamma: 0.95, PUE: 1,
		LambdaRPS: 0, We: 0.05, Wd: 0.01,
	}
	sol, err := hp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Active != 0 || sol.Value != 0 {
		t.Errorf("zero-load solution: %+v", sol)
	}
}

func TestHomogeneousInfeasible(t *testing.T) {
	hp := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 1, Gamma: 0.95, PUE: 1,
		LambdaRPS: 100, We: 1, Wd: 0.01,
	}
	if _, err := hp.Solve(); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
	// A load no fleet can carry: the γ cap's least count, +Inf, must not
	// overflow the int conversion.
	hp = &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 216000, Gamma: 0.95, PUE: 1.2,
		LambdaRPS: math.Inf(1), We: 0.07, Wd: 0.02, OnsiteKW: 3000,
	}
	if _, err := hp.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("λ = +Inf: want ErrInfeasible, got %v", err)
	}
}

func TestHomogeneousInvalid(t *testing.T) {
	// Malformed instances are caller bugs, not capacity answers: they must
	// be distinguishable from ErrInfeasible so probing solvers (the geo
	// split) do not mask corruption as "site full".
	cases := []*HomogeneousProblem{
		{Type: dcmodel.Opteron(), N: 0, LambdaRPS: 1},
		{Type: dcmodel.Opteron(), N: -3, Gamma: 0.95, PUE: 1, LambdaRPS: 1},
		{Type: dcmodel.Opteron(), N: 10, Gamma: 0.95, PUE: 1, LambdaRPS: -1},
		{Type: dcmodel.Opteron(), N: 10, Gamma: 0.95, PUE: 1, LambdaRPS: math.NaN()},
		// A switching anchor outside the fleet: the zero-load branch once
		// returned it as the active count.
		{Type: dcmodel.Opteron(), N: 100, Gamma: 0.95, PUE: 1, SwitchWeight: 0.5, PrevActive: 150},
		{Type: dcmodel.Opteron(), N: 100, Gamma: 0.95, PUE: 1, SwitchWeight: 0.5, PrevActive: -7},
		{Type: dcmodel.Opteron(), N: 100, Gamma: 0.95, PUE: 1, LambdaRPS: 300, PrevActive: 101},
	}
	for i, hp := range cases {
		if _, err := hp.Solve(); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: want ErrInvalid, got %v", i, err)
		}
	}
}

func TestHomogeneousMatchesExhaustiveOverKM(t *testing.T) {
	// Exhaustive search over (speed, active count) must agree exactly: the
	// fast solver only claims exactness within the uniform family.
	rng := stats.NewRNG(404)
	for trial := 0; trial < 60; trial++ {
		hp := &HomogeneousProblem{
			Type: dcmodel.Opteron(), N: 1 + rng.IntN(200), Gamma: 0.95, PUE: 1,
			LambdaRPS: rng.Uniform(0, 800), We: rng.Uniform(0, 0.5),
			Wd: rng.Uniform(1e-4, 0.05), OnsiteKW: rng.Uniform(0, 20),
		}
		if rng.Bernoulli(0.4) {
			hp.SwitchWeight = rng.Uniform(0, 0.1)
			hp.PrevActive = rng.IntN(hp.N + 1)
		}
		fast, fastErr := hp.Solve()
		bestVal := math.Inf(1)
		for k := 1; k <= hp.Type.NumSpeeds(); k++ {
			for m := 0; m <= hp.N; m++ {
				if v, _ := hp.objective(k, m); v < bestVal {
					bestVal = v
				}
			}
		}
		if v, _ := hp.objective(0, 0); v < bestVal {
			bestVal = v
		}
		if math.IsInf(bestVal, 1) {
			if fastErr != ErrInfeasible {
				t.Errorf("trial %d: exhaustive infeasible but fast gave %v", trial, fastErr)
			}
			continue
		}
		if fastErr != nil {
			t.Fatalf("trial %d: %v", trial, fastErr)
		}
		if fast.Value > bestVal*(1+1e-9)+1e-12 {
			t.Errorf("trial %d: fast %v > exhaustive %v", trial, fast.Value, bestVal)
		}
	}
}

func TestHomogeneousNearEnumerateOptimum(t *testing.T) {
	// Against the unrestricted (mixed-speed) optimum the uniform-family
	// solver must be within a small documented gap.
	rng := stats.NewRNG(505)
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.IntN(3)
		c := tinyCluster(n)
		capSum := float64(n) * 10 * 0.95
		p := &dcmodel.SlotProblem{
			Cluster:   c,
			LambdaRPS: rng.Uniform(0.5, 0.9*capSum),
			We:        rng.Uniform(0.01, 0.3),
			Wd:        rng.Uniform(1e-3, 0.03),
			OnsiteKW:  rng.Uniform(0, 0.5),
		}
		exact, err := Enumerate(p)
		if err != nil {
			t.Fatalf("trial %d enumerate: %v", trial, err)
		}
		// The same fleet as one homogeneous problem of n servers.
		hp := &HomogeneousProblem{
			Type: dcmodel.Opteron(), N: n, Gamma: c.Gamma, PUE: c.PUE,
			LambdaRPS: p.LambdaRPS, We: p.We, Wd: p.Wd, OnsiteKW: p.OnsiteKW,
		}
		fast, err := hp.Solve()
		if err != nil {
			t.Fatalf("trial %d fast: %v", trial, err)
		}
		if fast.Value < exact.Value-1e-6*(1+exact.Value) {
			t.Errorf("trial %d: fast %v beats exhaustive %v (impossible)",
				trial, fast.Value, exact.Value)
		}
		if fast.Value > exact.Value*1.05+1e-9 {
			t.Errorf("trial %d: fast %v more than 5%% above optimum %v",
				trial, fast.Value, exact.Value)
		}
	}
}

func TestSwitchingPenaltyKeepsServersOn(t *testing.T) {
	// With a large switching penalty and servers already on, the solver
	// should keep the count close to PrevActive rather than powering down.
	base := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 200, Gamma: 0.95, PUE: 1,
		LambdaRPS: 100, We: 0.05, Wd: 0.01,
	}
	free, err := base.Solve()
	if err != nil {
		t.Fatal(err)
	}
	sticky := *base
	sticky.SwitchWeight = 10 // dwarfs everything else
	sticky.PrevActive = 150
	got, err := sticky.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got.Active != 150 {
		t.Errorf("with huge switching penalty active = %d, want 150 (free optimum was %d)",
			got.Active, free.Active)
	}
}

// cubicType is a server whose computing power grows with the cube of its
// frequency, so that, unlike the Opteron, its slower levels serve a request
// for less energy and the optimal speed varies with the weights.
func cubicType() dcmodel.ServerType {
	st := dcmodel.ServerType{Name: "cubic", StaticKW: 0.1}
	for f := 1.0; f <= 4; f++ {
		st.Levels = append(st.Levels, dcmodel.SpeedLevel{
			FreqGHz: f, BusyKW: 0.1 + 0.01*f*f*f, RateRPS: 2.5 * f,
		})
	}
	return st
}

// goldenProblems is the grid of homogeneous instances the golden hash
// covers: the Opteron and cubicType; N of 50 and 216,000; λ at zero,
// small, mid and near capacity; PUE 1 and 1.3; delay- and energy-heavy
// weights; each with and without a switching penalty.
func goldenProblems() []*HomogeneousProblem {
	var out []*HomogeneousProblem
	for _, st := range []dcmodel.ServerType{dcmodel.Opteron(), cubicType()} {
		for _, n := range []int{50, 216000} {
			capRPS := 0.95 * st.MaxRate() * float64(n)
			for _, frac := range []float64{0, 0.013, 0.5, 0.985} {
				for _, pue := range []float64{1, 1.3} {
					for variant := 0; variant < 4; variant++ {
						// Odd variants weight energy over delay, so slower
						// speeds come into play.
						we, wd := 0.07, 0.02
						if variant%2 == 1 {
							we, wd = 40, 0.001
						}
						hp := &HomogeneousProblem{
							Type: st, N: n, Gamma: 0.95, PUE: pue,
							LambdaRPS: frac * capRPS, We: we, Wd: wd,
							OnsiteKW: 0.04 * float64(n),
						}
						if variant >= 2 {
							hp.SwitchWeight = 0.003
							hp.PrevActive = n / 3
						}
						out = append(out, hp)
					}
				}
			}
		}
	}
	return out
}

// TestHomogeneousSolveGoldenHash pins every output bit of
// HomogeneousProblem.Solve over goldenProblems: speed, count, value,
// power, grid energy and delay cost, plus which instances are infeasible.
func TestHomogeneousSolveGoldenHash(t *testing.T) {
	const want = "fnv1a:23da6ebfe9ac7f5c"
	h := fnv.New64a()
	put := func(vs ...float64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for i, hp := range goldenProblems() {
		sol, err := hp.Solve()
		switch {
		case errors.Is(err, ErrInfeasible):
			put(-1)
			continue
		case err != nil:
			t.Fatalf("problem %d: %v", i, err)
		}
		put(float64(sol.Speed), float64(sol.Active), sol.Value,
			sol.PowerKW, sol.GridKWh, sol.DelayCost)
	}
	if got := fmt.Sprintf("fnv1a:%016x", h.Sum64()); got != want {
		t.Errorf("homogeneous solve hash = %s, want %s (solver arithmetic drifted)", got, want)
	}
}

// kernel compiles the objective for speed level k ≥ 1; speed 0 serves only
// to evaluate the all-off count m = 0.
func (hp *HomogeneousProblem) kernel(k int) speedKernel {
	kn := speedKernel{hp: hp}
	kn.compile()
	kn.setSpeed(k)
	return kn
}

// objective evaluates the homogeneous objective for m active servers at
// speed k. Infeasible pairs return +Inf.
func (hp *HomogeneousProblem) objective(k, m int) (float64, HomogeneousSolution) {
	kn := hp.kernel(k)
	s := kn.solution(k, m)
	return s.Value, s
}

// oracleObjective is the homogeneous objective as the solver computed it
// before the per-speed kernel: a dcmodel.Group per probe, Group.PowerKW,
// math.Max and Group.DelayCost. The kernel must reproduce it bit for bit.
func oracleObjective(hp *HomogeneousProblem, k, m int) (float64, HomogeneousSolution) {
	sol := HomogeneousSolution{Speed: k, Active: m}
	if m == 0 {
		if hp.LambdaRPS > 0 {
			return math.Inf(1), sol
		}
		sol.Value = hp.switchPenalty(0)
		return sol.Value, sol
	}
	x := hp.Type.Rate(k)
	perServer := hp.LambdaRPS / float64(m)
	if perServer > hp.Gamma*x {
		return math.Inf(1), sol
	}
	g := dcmodel.Group{Type: hp.Type, N: m}
	sol.PowerKW = hp.PUE * g.PowerKW(k, hp.LambdaRPS)
	sol.GridKWh = math.Max(0, sol.PowerKW-hp.OnsiteKW)
	sol.DelayCost = g.DelayCost(k, hp.LambdaRPS)
	sol.Value = hp.We*sol.GridKWh + hp.Wd*sol.DelayCost + hp.switchPenalty(m)
	return sol.Value, sol
}

// kernelMismatch compares the kernel at (k, m) with oracleObjective bit
// for bit: the value and the power, grid energy and delay cost behind it.
func kernelMismatch(hp *HomogeneousProblem, k, m int) error {
	kn := hp.kernel(k)
	v, power, grid, delay := kn.eval(m)
	wv, ws := oracleObjective(hp, k, m)
	got := [4]float64{v, power, grid, delay}
	want := [4]float64{wv, ws.PowerKW, ws.GridKWh, ws.DelayCost}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("k=%d m=%d: kernel (v, p, grid, d) = %v, oracle %v", k, m, got, want)
		}
	}
	return nil
}

// checkKernel runs kernelMismatch over the all-off count and, at every
// speed, every stride-th count in [1, N] plus the last one.
func checkKernel(t *testing.T, hp *HomogeneousProblem, stride int) {
	t.Helper()
	if err := kernelMismatch(hp, 0, 0); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= hp.Type.NumSpeeds(); k++ {
		for m := 1; m <= hp.N; m += stride {
			if err := kernelMismatch(hp, k, m); err != nil {
				t.Fatal(err)
			}
		}
		if err := kernelMismatch(hp, k, hp.N); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHomogeneousKernelMatchesOracle checks the per-speed kernel against
// the pre-kernel formula bit for bit: at every count for N = 50 and at a
// stride for N = 216,000, over the golden grid, plus the corners of
// [p − r]^+ (a difference of exactly +0 and of −0, and a NaN one).
func TestHomogeneousKernelMatchesOracle(t *testing.T) {
	for _, hp := range goldenProblems() {
		stride := 1
		if hp.N > 1000 {
			stride = 97
		}
		checkKernel(t, hp, stride)
	}

	for _, hp := range kernelCorners() {
		checkKernel(t, hp, 1)
	}
}

// kernelCorners returns small problems at the corners of [p − r]^+: a
// difference of exactly +0 and of −0, and a NaN one.
func kernelCorners() []*HomogeneousProblem {
	exact := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 40, Gamma: 0.95, PUE: 1,
		We: 0.07, Wd: 0.02, SwitchWeight: 0.01, PrevActive: 7,
	}
	_, at20 := oracleObjective(exact, 2, 20)
	exact.OnsiteKW = at20.PowerKW // p − r = +0 at m = 20

	noStatic := cubicType()
	noStatic.StaticKW = 0
	negZero := &HomogeneousProblem{ // p = PUE·(+0) = −0, so p − r = −0
		Type: noStatic, N: 10, Gamma: 0.95, PUE: -1, We: 1, Wd: 1,
	}
	nan := &HomogeneousProblem{ // p − r = +Inf − +Inf, a NaN
		Type: dcmodel.Opteron(), N: 10, Gamma: 0.95, PUE: math.Inf(1),
		LambdaRPS: 20, We: 1, Wd: 1, OnsiteKW: math.Inf(1),
	}
	return []*HomogeneousProblem{exact, negZero, nan}
}

// FuzzHomogeneousKernel checks the kernel against oracleObjective bit for
// bit on random problems, with unrestricted weights, PUE, γ, supply and
// switching penalty, at every count of a fleet of up to 400 servers.
func FuzzHomogeneousKernel(f *testing.F) {
	f.Add(uint16(50), 0.5, 0.95, 1.0, 0.07, 0.02, 2.0, 0.0, uint16(0), false)
	f.Add(uint16(400), 0.99, 0.95, 1.3, 40.0, 0.001, 10.0, 0.003, uint16(130), true)
	f.Add(uint16(7), 0.0, 0.5, 1.1, 1.0, 1.0, 0.0, 0.5, uint16(3), false)
	f.Fuzz(func(t *testing.T, n uint16, frac, gamma, pue, we, wd, onsite, sw float64,
		prev uint16, cubic bool) {
		hp := &HomogeneousProblem{
			Type: dcmodel.Opteron(), N: 1 + int(n%400), Gamma: gamma, PUE: pue,
			We: we, Wd: wd, OnsiteKW: onsite,
			SwitchWeight: sw, PrevActive: int(prev % 401),
		}
		if cubic {
			hp.Type = cubicType()
		}
		// λ as a fraction of the fleet's top-speed capacity; Solve rejects
		// negative and NaN loads before any probe.
		hp.LambdaRPS = math.Abs(frac) * hp.Type.MaxRate() * float64(hp.N)
		if math.IsNaN(hp.LambdaRPS) {
			hp.LambdaRPS = 0
		}
		checkKernel(t, hp, 1)
	})
}

// speedSearch is one speed's kernel and the count window Solve searches.
type speedSearch struct {
	kn        speedKernel
	k, lo, hi int
}

// windowLo returns the low end of speed k's count window, the least count
// the γ cap lets carry λ, as Solve computes it.
func windowLo(hp *HomogeneousProblem, k int) int {
	return max(hp.clampCount(math.Ceil(hp.LambdaRPS/(hp.Gamma*hp.Type.Rate(k)))), 1)
}

// speedWindows returns a speedSearch for each speed of hp whose count
// window [lo, N] is non-empty.
func speedWindows(hp *HomogeneousProblem) []speedSearch {
	var ws []speedSearch
	for k := 1; k <= hp.Type.NumSpeeds(); k++ {
		if lo := windowLo(hp, k); lo <= hp.N {
			ws = append(ws, speedSearch{kn: hp.kernel(k), k: k, lo: lo, hi: hp.N})
		}
	}
	return ws
}

// checkPlateau checks every speed window's search against
// numopt.MinimizeInt (the same count and value bits, in no more probes but
// the shape probes a plain window's fallback adds).
// In a plain window it also checks that search makes exactly the probes
// plateauProbes counts, the certificate in exact arithmetic
// (checkCertificate), and the plateau against the comparisons it decides:
// eval(m) > eval(m + 1) for m + 1 ≤ mL and eval(m) ≤ eval(m + 1) for
// m ≥ mR, which by transitivity is every pair it decides. It checks every
// consecutive pair when every is set, else every 97th and those within 200
// counts of mL and of mR. It returns the widest plateau, mR − mL, over the
// plain windows.
func checkPlateau(t *testing.T, hp *HomogeneousProblem, every bool) (width int) {
	t.Helper()
	for _, w := range speedWindows(hp) {
		kn := &w.kn
		ref := 0
		wantM, wantV := numopt.MinimizeInt(func(m int) float64 {
			ref++
			v, _, _, _ := kn.eval(m)
			return v
		}, w.lo, w.hi, 3)
		gotM, gotV, _ := kn.search(w.lo, w.hi)
		// A plain window's fallback makes its shape probes before
		// MinimizeInt's.
		extra := 0
		if kn.plain(w.lo) {
			extra = 2*sweep + 1
		}
		if gotM != wantM || math.Float64bits(gotV) != math.Float64bits(wantV) || kn.probes > ref+extra {
			t.Fatalf("N=%d k=%d window [%d, %d]: search = (%d, %v) in %d probes, MinimizeInt (%d, %v) in %d",
				hp.N, w.k, w.lo, w.hi, gotM, gotV, kn.probes, wantM, wantV, ref)
		}
		if !kn.plain(w.lo) {
			continue
		}
		mL, mR := kn.plateau(w.lo, w.hi)
		width = max(width, mR-mL)
		if want := plateauProbes(kn, w.lo, w.hi, mL, mR); kn.probes != want {
			t.Fatalf("N=%d k=%d window [%d, %d], plateau [%d, %d]: search made %d probes, want %d",
				hp.N, w.k, w.lo, w.hi, mL, mR, kn.probes, want)
		}
		checkCertificate(t, kn, w.lo, w.hi, mL, mR, every)
		check := func(m int) {
			if m < w.lo || m >= w.hi {
				return
			}
			v0, _, _, _ := kn.eval(m)
			v1, _, _, _ := kn.eval(m + 1)
			if m+1 <= mL && !(v0 > v1) || m >= mR && !(v0 <= v1) {
				t.Fatalf("N=%d k=%d window [%d, %d], plateau [%d, %d]: eval(%d) = %v, eval(%d) = %v",
					hp.N, w.k, w.lo, w.hi, mL, mR, m, v0, m+1, v1)
			}
		}
		stride := 1
		if !every {
			stride = 97
			for d := -200; d <= 200; d++ {
				check(mL + d)
				check(mR + d)
			}
		}
		for m := w.lo; m < w.hi; m += stride {
			check(m)
		}
	}
	return width
}

// plateauProbes counts the probes search must make over the plain window
// [lo, hi] with the plateau [mL, mR]: the e − s + 1 counts of the clamped
// plateau [s, e] when that is at most 2·sweep + 1 counts, plus
// numopt.MinimizeInt's probes when it is wider or its probes are not
// shaped.
func plateauProbes(kn *speedKernel, lo, hi, mL, mR int) int {
	f := func(m int) float64 {
		v, _, _, _ := kn.eval(m)
		return v
	}
	n := 0
	s := min(max(mL, lo), hi)
	if e := max(min(mR, hi), s); e-s <= 2*sweep {
		var vs []float64
		for m := s; m <= e; m++ {
			vs = append(vs, f(m))
		}
		if _, ok := shaped(vs); ok {
			return len(vs)
		}
		n = len(vs)
	}
	numopt.MinimizeInt(func(m int) float64 {
		n++
		return f(m)
	}, lo, hi, sweep)
	return n
}

// checkCertificate checks plateau's certificate in exact arithmetic
// (math/big at 300 bits) against F, the objective over real m with the
// kernel's operands: |eval(m) − F(m)| ≤ E at every count of [lo, hi] when
// every is set, else at every 97th and both ends; F's left slope below −2E
// at min(mL, hi) and its right slope at least 2E at max(mR, lo), where
// those are in the window.
func checkCertificate(t *testing.T, kn *speedKernel, lo, hi, mL, mR int, every bool) {
	t.Helper()
	e, ok := kn.evalError(lo, hi)
	if !ok {
		return
	}
	num := func(v float64) *big.Float { return new(big.Float).SetPrec(300).SetFloat64(v) }
	op := func() *big.Float { return new(big.Float).SetPrec(300) }
	// power returns P(m) = PUE·(m·p_s + c_k); denom m·x − λ.
	power := func(m int) *big.Float {
		p := op().Mul(num(float64(m)), num(kn.ps))
		return p.Mul(num(kn.pue), p.Add(p, num(kn.ck)))
	}
	denom := func(m int) *big.Float {
		d := op().Mul(num(float64(m)), num(kn.x))
		return d.Sub(d, num(kn.lambda))
	}
	twoE := num(2 * e)
	for m := lo; m <= hi; m++ {
		if !every && m != hi && (m-lo)%97 != 0 {
			continue
		}
		grid := op().Sub(power(m), num(kn.r))
		if grid.Sign() < 0 {
			grid.SetFloat64(0)
		}
		f := op().Mul(num(kn.we), grid)
		d := op().Mul(num(float64(m)), num(kn.lambda))
		d.Quo(d, denom(m))
		f.Add(f, d.Mul(d, num(kn.wd)))
		v, _, _, _ := kn.eval(m)
		diff := op().Sub(num(v), f)
		if diff.Abs(diff).Cmp(num(e)) > 0 {
			t.Fatalf("window [%d, %d]: |eval(%d) − F| = %v exceeds E = %v", lo, hi, m, diff, e)
		}
	}
	// slope returns F's left (right == false) or right slope at m.
	slope := func(m int, right bool) *big.Float {
		s := op()
		if c := power(m).Cmp(num(kn.r)); c > 0 || right && c == 0 {
			s.Mul(num(kn.we), num(kn.pue))
			s.Mul(s, num(kn.ps))
		}
		d := denom(m)
		q := op().Mul(num(kn.lambda), num(kn.lambda))
		q.Quo(q, d.Mul(d, d))
		return s.Sub(s, q.Mul(q, num(kn.wd)))
	}
	if m := min(mL, hi); m >= lo {
		if s := slope(m, false); s.Add(s, twoE).Sign() >= 0 {
			t.Fatalf("window [%d, %d]: left slope at mL = %d is not below −2E = %v", lo, hi, m, -2*e)
		}
	}
	if m := max(mR, lo); m <= hi {
		if s := slope(m, true); s.Sub(s, twoE).Sign() < 0 {
			t.Fatalf("window [%d, %d]: right slope at mR = %d is below 2E = %v", lo, hi, m, 2*e)
		}
	}
}

// TestPlateauDecidesOnlyTrueComparisons checks checkPlateau over the
// golden grid, the kernel corners and random plain problems of up to
// 2,000 servers whose weights span twelve decades, whose kink falls
// anywhere in the window, half the time exactly on a count, and whose γ
// runs up to 1. The plateau must also
// decide nearly everything where the paper's runs need it: at most a few
// counts wide for every golden problem at N = 216,000 with load and no
// switching penalty.
func TestPlateauDecidesOnlyTrueComparisons(t *testing.T) {
	for i, hp := range goldenProblems() {
		width := checkPlateau(t, hp, hp.N <= 1000)
		if hp.N > 1000 && hp.LambdaRPS > 0 && hp.SwitchWeight == 0 && width > 4 {
			t.Errorf("problem %d: plateau %d counts wide", i, width)
		}
	}
	for _, hp := range kernelCorners() {
		checkPlateau(t, hp, true)
	}
	rng := stats.NewRNG(35)
	decade := func(lo, hi float64) float64 { return math.Pow(10, rng.Uniform(lo, hi)) }
	for trial := 0; trial < 300; trial++ {
		hp := &HomogeneousProblem{
			Type: dcmodel.Opteron(), N: 1 + rng.IntN(2000), PUE: rng.Uniform(1, 2),
			Gamma: []float64{0.5, 0.95, 0.999, 1}[rng.IntN(4)],
			We:    decade(-6, 6), Wd: decade(-6, 6),
		}
		if rng.Bernoulli(0.5) {
			hp.Type = cubicType()
		}
		fn := float64(hp.N)
		hp.LambdaRPS = rng.Uniform(0.001, 0.99) * hp.Gamma * hp.Type.MaxRate() * fn
		hp.OnsiteKW = rng.Uniform(0, 1.5) * hp.PUE * hp.Type.Levels[3].BusyKW * fn
		if rng.Bernoulli(0.5) {
			// The kink on a count: r is the power there, to the last bit.
			_, at := oracleObjective(hp, 1+rng.IntN(4), 1+rng.IntN(hp.N))
			hp.OnsiteKW = at.PowerKW
		}
		checkPlateau(t, hp, true)
	}
}

// TestSearchSkipsCertifiedProbes pins the probes the plateau saves on the
// BenchmarkHomogeneousP3Solve instance: Solve's one search reads its answer
// off the plateau in exactly 2 probes, and over every speed's window search
// must probe well under numopt.MinimizeInt's ~56 per window while
// returning the same count and value.
func TestSearchSkipsCertifiedProbes(t *testing.T) {
	hp := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 216000, Gamma: 0.95, PUE: 1,
		LambdaRPS: 6e5, We: 0.07, Wd: 0.02, OnsiteKW: 3000,
	}
	kn := speedKernel{hp: hp}
	kn.compile()
	if _, err := kn.solve(); err != nil {
		t.Fatal(err)
	}
	solveMean := float64(kn.probes) / float64(kn.searches)
	checkPlateau(t, hp, false)
	var probes, ref int
	ws := speedWindows(hp)
	for _, w := range ws {
		w.kn.search(w.lo, w.hi)
		probes += w.kn.probes
		numopt.MinimizeInt(func(m int) float64 {
			ref++
			v, _, _, _ := w.kn.eval(m)
			return v
		}, w.lo, w.hi, 3)
	}
	mean, refMean := float64(probes)/float64(len(ws)), float64(ref)/float64(len(ws))
	t.Logf("probes per search: Solve %.1f over %d searches; every window %.1f, MinimizeInt %.1f",
		solveMean, kn.searches, mean, refMean)
	if kn.searches != 1 || kn.probes != 2 || mean > 0.6*refMean || refMean < 55 {
		t.Errorf("Solve: %d probes over %d searches (want 2 over 1); every window %.1f against MinimizeInt's %.1f (want ≤ 60%%)",
			kn.probes, kn.searches, mean, refMean)
	}
}

// TestSearchFallsBackOnUnshapedPlateau reaches search's fallback after a
// failed shape check with a real kernel: a server with no static power has
// a flat energy term, so a delay weight of about a third of an ulp of it
// moves the sum by single ulps. The window [2, 7] is plain and its plateau
// decides nothing, so search probes all six counts; the first two round to
// the same value above the rest, a left tie that shaped must refuse. The
// fallback must then return numopt.MinimizeInt's count and value bits,
// report no certified least value, and make the probes plateauProbes
// counts.
func TestSearchFallsBackOnUnshapedPlateau(t *testing.T) {
	hp := &HomogeneousProblem{
		Type: dcmodel.ServerType{Name: "static-free", Levels: []dcmodel.SpeedLevel{
			{FreqGHz: 1, BusyKW: 1, RateRPS: 1},
		}},
		N: 7, Gamma: 0.5, PUE: 1, LambdaRPS: 1, We: 1, Wd: 0x1p-52 * 0.35,
	}
	kn := hp.kernel(1)
	lo := windowLo(hp, 1)
	mL, mR := kn.plateau(lo, hp.N)
	var vs []float64
	for m := lo; m <= hp.N; m++ {
		v, _, _, _ := kn.eval(m)
		vs = append(vs, v)
	}
	if !kn.plain(lo) || lo != 2 || mL >= lo || mR <= hp.N {
		t.Fatalf("window [%d, %d] plain %v, plateau [%d, %d]: want a plain window [2, 7] whose plateau decides nothing",
			lo, hp.N, kn.plain(lo), mL, mR)
	}
	if _, ok := shaped(vs); ok || vs[0] != vs[1] || !(vs[1] > vs[2]) {
		t.Fatalf("probes %v: want a left tie above a fall, which shaped refuses", vs)
	}
	wantM, wantV := minimizeSlice(vs)
	m, v, least := kn.search(lo, hp.N)
	if m != lo+wantM || math.Float64bits(v) != math.Float64bits(wantV) || least {
		t.Errorf("search = (%d, %v, least %v); MinimizeInt gives (%d, %v) and no certificate", m, v, least, lo+wantM, wantV)
	}
	if want := plateauProbes(&kn, lo, hp.N, mL, mR); kn.probes != want || want <= len(vs) {
		t.Errorf("search made %d probes; plateauProbes counts %d, the %d shape probes and MinimizeInt's", kn.probes, want, len(vs))
	}
}

// minimizeSlice is numopt.MinimizeInt over vs's indices with search's
// sweep.
func minimizeSlice(vs []float64) (int, float64) {
	return numopt.MinimizeInt(func(i int) float64 { return vs[i] }, 0, len(vs)-1, sweep)
}

// TestShapedWindow pins shaped on small sequences, and on a flat left
// shoulder: MinimizeInt's ternary steps there compare two equal values,
// keep the left part and miss the minimum past the shoulder, so shaped
// must refuse the tie for search to fall back.
func TestShapedWindow(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		vs []float64
		j  int
		ok bool
	}{
		{[]float64{7}, 0, true},
		{[]float64{5, 3, 1}, 2, true},
		{[]float64{1, 2, 3}, 0, true},
		{[]float64{2, 2}, 0, true},
		{[]float64{5, 3, 3, 4}, 1, true}, // a tie at the least value
		{[]float64{5, 3, 4, 4, 6}, 1, true},
		{[]float64{5, 5, 3}, 0, false}, // a left tie
		{[]float64{5, 3, 3, 1, 2}, 1, false},
		{[]float64{3, 1, 2, 1}, 1, false}, // falls after the least value
		{[]float64{3, nan}, 0, false},
		{[]float64{nan, 3}, 0, false},
	}
	for _, c := range cases {
		if j, ok := shaped(c.vs); j != c.j || ok != c.ok {
			t.Errorf("shaped(%v) = %d, %v; want %d, %v", c.vs, j, ok, c.j, c.ok)
		}
	}

	shoulder := make([]float64, 30)
	shoulder[0] = 20
	for i := 1; i < 25; i++ {
		shoulder[i] = 10
	}
	for i := 25; i < len(shoulder); i++ {
		shoulder[i] = float64(i - 25)
	}
	if m, v := minimizeSlice(shoulder); m == 25 || v == 0 {
		t.Fatalf("MinimizeInt found the minimum past the shoulder (%d, %v); the case no longer shows the miss", m, v)
	}
	if j, ok := shaped(shoulder); ok {
		t.Errorf("shaped accepts a flat left shoulder, answering %d", j)
	}
}

// FuzzShapedWindow checks shaped, and search's use of it, on integer-valued
// sequences that fall (by each fall byte mod 4: a 0 is a tie, which unless
// only ties follow it leaves the sequence unshaped) and then never fall (by
// each rise byte mod 3, flat runs included). On the whole sequence shaped
// must accept exactly when the fall is strict up to its least value, and
// then answer MinimizeInt's count and value bits. Search's form of the
// lemma: for any mL up to where the sequence stops falling strictly and
// any mR from where it never falls again, a shaped clamped plateau [s, e]
// of at most 2·sweep + 1 counts must give MinimizeInt's answer over the
// whole sequence, and a shaped sequence must give a shaped [s, e].
func FuzzShapedWindow(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1, 0, 2}, uint8(1), uint8(4))
	f.Add([]byte{3, 0, 0, 2}, []byte{0, 0, 1}, uint8(0), uint8(9))
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3}, []byte{1, 1, 1, 1}, uint8(0), uint8(30))
	f.Add([]byte{}, []byte{0, 0, 0}, uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, fall, rise []byte, left, right uint8) {
		fall, rise = fall[:min(len(fall), 64)], rise[:min(len(rise), 64)]
		v := 0.0
		for _, b := range fall {
			v += float64(b % 4)
		}
		vs := []float64{v}
		// least is the index of the first least value; the sequence is
		// shaped unless a tie precedes a later fall.
		least, tie, strict := 0, false, true
		for _, b := range fall {
			v -= float64(b % 4)
			vs = append(vs, v)
			if b%4 == 0 {
				tie = true
			} else {
				strict = strict && !tie
				least = len(vs) - 1
			}
		}
		for _, b := range rise {
			v += float64(b % 3)
			vs = append(vs, v)
		}
		wantM, wantV := minimizeSlice(vs)
		j, ok := shaped(vs)
		if ok != strict || ok && (j != least || j != wantM || math.Float64bits(vs[j]) != math.Float64bits(wantV)) {
			t.Fatalf("%v: shaped = %d, %v; want %v (least value at %d), MinimizeInt %d", vs, j, ok, strict, least, wantM)
		}

		// The certified runs: strict falls on [0, fallEnd], no fall on
		// [riseStart, hi].
		hi := len(vs) - 1
		fallEnd := 0
		for fallEnd < hi && vs[fallEnd] > vs[fallEnd+1] {
			fallEnd++
		}
		riseStart := hi
		for riseStart > 0 && vs[riseStart-1] <= vs[riseStart] {
			riseStart--
		}
		// An mL of lo − 1 and an mR of hi + 1 certify nothing.
		mL, mR := max(fallEnd-int(left%9), -1), min(riseStart+int(right%9), hi+1)
		s := min(max(mL, 0), hi)
		e := max(min(mR, hi), s)
		if e-s > 2*sweep {
			return
		}
		jw, okw := shaped(vs[s : e+1])
		if strict && !okw {
			t.Fatalf("%v, plateau [%d, %d]: [%d, %d] not shaped", vs, mL, mR, s, e)
		}
		if okw && (s+jw != wantM || math.Float64bits(vs[s+jw]) != math.Float64bits(wantV)) {
			t.Fatalf("%v, plateau [%d, %d]: shaped [%d, %d] answers %d, MinimizeInt %d", vs, mL, mR, s, e, s+jw, wantM)
		}
	})
}

// refHomogeneousSolve is HomogeneousProblem.Solve as it was before any
// speed was skipped or any answer read off a plateau: every speed searched
// in index order with numopt.MinimizeInt.
func refHomogeneousSolve(hp *HomogeneousProblem) (HomogeneousSolution, error) {
	if hp.N <= 0 || hp.LambdaRPS < 0 || math.IsNaN(hp.LambdaRPS) ||
		hp.PrevActive < 0 || hp.PrevActive > hp.N {
		return HomogeneousSolution{}, ErrInvalid
	}
	if hp.LambdaRPS == 0 {
		// With no load the delay term vanishes; all-off is optimal up to the
		// switching penalty, which is itself minimized near PrevActive — but
		// keeping idle servers on costs static power, so compare both.
		offVal, off := hp.objective(0, 0)
		best := off
		bestVal := offVal
		for k := 1; k <= hp.Type.NumSpeeds(); k++ {
			if v, s := hp.objective(k, hp.PrevActive); v < bestVal {
				bestVal, best = v, s
			}
		}
		return best, nil
	}
	best := HomogeneousSolution{}
	bestVal := math.Inf(1)
	for k := 1; k <= hp.Type.NumSpeeds(); k++ {
		minM := windowLo(hp, k)
		if minM > hp.N {
			continue
		}
		kn := hp.kernel(k)
		m, val := numopt.MinimizeInt(func(m int) float64 {
			v, _, _, _ := kn.eval(m)
			return v
		}, minM, hp.N, 3)
		if val < bestVal {
			bestVal, best = hp.objective(k, m)
		}
	}
	if math.IsInf(bestVal, 1) {
		return HomogeneousSolution{}, ErrInfeasible
	}
	return best, nil
}

// TestSwitchingSearchesEveryWindow pins Solve on the switching path of the
// Fig. 5(d) study: a switching penalty leaves no window plain, so no answer
// is read off a plateau and no speed is skipped. Over goldenProblems'
// switching variants with load, Solve must search each feasible speed's
// window exactly once (aiming the kernel once a search, plus once more at
// the answer's speed if that was not searched last) and match
// refHomogeneousSolve bit for bit.
func TestSwitchingSearchesEveryWindow(t *testing.T) {
	solves := 0
	for i, hp := range goldenProblems() {
		if hp.SwitchWeight == 0 || hp.LambdaRPS == 0 {
			continue
		}
		solves++
		got, n, err := SolveCounted(hp)
		want, wantErr := refHomogeneousSolve(hp)
		if err != wantErr || !sameSolution(got, want) {
			t.Fatalf("problem %d: Solve = %+v, %v; every speed in index order gives %+v, %v",
				i, got, err, want, wantErr)
		}
		windows := len(speedWindows(hp))
		if n.Searches != windows || n.Aims < windows || n.Aims > windows+1 {
			t.Errorf("problem %d: %d searches and %d aims over %d feasible windows, want one search each",
				i, n.Searches, n.Aims, windows)
		}
	}
	if solves == 0 {
		t.Fatal("no switching problem with load in the golden grid")
	}
}

// FuzzHomogeneousSolve checks Solve against refHomogeneousSolve bit for
// bit (speed, count, value, power, grid energy, delay cost and error) on
// random problems of up to 216,000 servers: unrestricted λ, weights, PUE,
// γ and supply, with switching (its anchor up to four counts above the
// fleet, and below zero for draws of 2³¹ and up) and either server type.
// Supply is drawn per server and scaled by N. Up to 500 servers it also
// checks every speed's plateau against every comparison. The seeds after
// the first four sit at the plateau's corners: the optimum at the kink (at
// 216,000 servers a kink exactly on a count) and at the γ cap's low end,
// γ = 1 (lo·x = λ), We = 0, Wd = 0, switching, an infinite λ (a window
// starting past the fleet) and a tiny λ.
func FuzzHomogeneousSolve(f *testing.F) {
	f.Add(uint32(215999), 0.3, 0.95, 1.0, 0.07, 0.02, 0.04, 0.0, uint32(0), false)
	f.Add(uint32(49), 0.5, 0.95, 1.3, 40.0, 0.001, 0.04, 0.003, uint32(16), false)
	f.Add(uint32(215999), 0.985, 0.95, 1.3, 40.0, 0.001, 0.04, 0.0, uint32(0), true)
	f.Add(uint32(9999), 0.2, 1.0, 1.1, 3.0, 0.5, 0.1, 0.01, uint32(5000), true)
	f.Add(uint32(499), 0.3, 0.95, 1.0, 40.0, 0.001, 0.1, 0.0, uint32(0), false)
	f.Add(uint32(215999), 0.3, 0.95, 1.0, 40.0, 0.001, 0.12, 0.0, uint32(0), true)
	f.Add(uint32(499), 0.3, 0.95, 1.0, 1.0, 1e-6, 0.0, 0.0, uint32(0), false)
	f.Add(uint32(215999), 0.5, 1.0, 1.1, 0.07, 0.02, 0.04, 0.0, uint32(0), false)
	f.Add(uint32(215999), 0.4, 0.95, 1.0, 0.0, 0.02, 0.04, 0.0, uint32(0), false)
	f.Add(uint32(215999), 0.4, 0.95, 1.0, 0.07, 0.0, 0.04, 0.0, uint32(0), false)
	f.Add(uint32(4999), 0.3, 0.95, 1.2, 0.07, 0.02, 0.04, 0.01, uint32(1700), false)
	f.Add(uint32(215999), math.Inf(1), 0.95, 1.0, 0.07, 0.02, 0.04, 0.0, uint32(0), false)
	f.Add(uint32(215999), 1e-9, 0.95, 1.0, 0.07, 0.02, 0.04, 0.0, uint32(0), false)
	f.Fuzz(func(t *testing.T, n uint32, frac, gamma, pue, we, wd, onsite, sw float64,
		prev uint32, cubic bool) {
		hp := &HomogeneousProblem{
			Type: dcmodel.Opteron(), N: 1 + int(n%216000), Gamma: gamma, PUE: pue,
			We: we, Wd: wd, SwitchWeight: sw,
		}
		fn := float64(hp.N)
		hp.PrevActive = int(int32(prev)) % (hp.N + 5)
		hp.OnsiteKW = onsite * fn
		if cubic {
			hp.Type = cubicType()
		}
		hp.LambdaRPS = math.Abs(frac) * hp.Type.MaxRate() * fn
		if hp.N <= 500 && hp.LambdaRPS > 0 {
			checkPlateau(t, hp, true)
		}
		got, gotErr := hp.Solve()
		want, wantErr := refHomogeneousSolve(hp)
		if gotErr != wantErr || !sameSolution(got, want) {
			t.Fatalf("Solve = %+v, %v; every speed in index order gives %+v, %v",
				got, gotErr, want, wantErr)
		}
	})
}

// freeType decodes a server type of up to 8 levels from levels, two bytes
// a level: a rate of 0.5 to 4 in steps of 0.5, nudged up by 0 to 3 units
// in the last place (so rates repeat, come within ulps of each other and
// need not rise), and computing power of 1/4 to 2 times the rate, over 64;
// the multiples repeat, so levels tie in computing power per request, and
// the dyadic operands let some of those ties survive into the kernel's c
// exactly. static picks the static power: 0, 1/8 or 0.14.
func freeType(levels []byte, static uint8) dcmodel.ServerType {
	st := dcmodel.ServerType{Name: "free", StaticKW: []float64{0, 0.125, 0.14}[static%3]}
	for i := 0; i+1 < len(levels) && len(st.Levels) < 8; i += 2 {
		x := 0.5 * float64(1+levels[i]%8)
		for range levels[i] / 8 % 4 {
			x = math.Nextafter(x, math.Inf(1))
		}
		perRequest := []float64{0.25, 0.5, 0.75, 1, 1.5, 2}[levels[i+1]%6] / 64
		st.Levels = append(st.Levels, dcmodel.SpeedLevel{
			FreqGHz: float64(len(st.Levels) + 1), BusyKW: st.StaticKW + perRequest*x, RateRPS: x,
		})
	}
	if len(st.Levels) == 0 {
		st.Levels = []dcmodel.SpeedLevel{{FreqGHz: 1, BusyKW: st.StaticKW + 1.0/64, RateRPS: 1}}
	}
	return st
}

// FuzzSpeedDominance checks Solve, and the speeds it skips as beaten (see
// speedKernel.beats), on free server types (freeType): equal, near-equal
// and falling rates, ties in computing power per request, any λ (tiny
// included), weights, PUE, γ (1 included), supply and switching. Solve
// must match refHomogeneousSolve bit for bit, and up to 500 servers every
// count of every skipped speed's window must evaluate strictly above
// Solve's answer. The seeds cover a type whose top speed dominates the
// rest (as on the Opteron), rising computing power per request (nothing
// dominated), equal rates, rates an ulp or two apart, exact ties in c
// between a slower and a faster speed in either index order with a
// negligible delay weight (a skip there would change the answer's speed or
// tie it), a tiny λ, γ = 1, We = 0, Wd = 0 and switching.
func FuzzSpeedDominance(f *testing.F) {
	opteronLike := []byte{1, 5, 3, 3, 5, 1, 7, 0}
	f.Add(opteronLike, uint8(1), uint32(215999), 0.3, 0.95, 1.0, 0.07, 0.02, 0.04, 0.0, uint32(0))
	f.Add(opteronLike, uint8(2), uint32(99), 0.6, 0.95, 1.2, 40.0, 0.001, 0.04, 0.0, uint32(0))
	f.Add([]byte{1, 0, 3, 1, 5, 3, 7, 5}, uint8(1), uint32(299), 0.4, 0.95, 1.0, 40.0, 0.001, 0.02, 0.0, uint32(0))
	f.Add([]byte{3, 4, 3, 1, 7, 1, 1, 0}, uint8(0), uint32(49), 0.5, 0.9, 1.0, 1.0, 0.1, 0.0, 0.0, uint32(0))
	f.Add([]byte{1, 3, 3, 3}, uint8(0), uint32(5), 0.1, 0.9, 1.0, 1.0, 1e-25, 0.0, 0.0, uint32(0))
	f.Add([]byte{3, 3, 1, 3}, uint8(1), uint32(5), 0.1, 0.9, 1.0, 1.0, 1e-25, 0.0, 0.0, uint32(0))
	f.Add(opteronLike, uint8(1), uint32(215999), 1e-9, 0.95, 1.0, 0.07, 0.02, 0.04, 0.0, uint32(0))
	f.Add(opteronLike, uint8(1), uint32(499), 0.5, 1.0, 1.1, 0.07, 0.02, 0.04, 0.0, uint32(0))
	f.Add(opteronLike, uint8(1), uint32(499), 0.4, 0.95, 1.0, 0.0, 0.02, 0.04, 0.0, uint32(0))
	f.Add(opteronLike, uint8(1), uint32(499), 0.4, 0.95, 1.0, 0.07, 0.0, 0.04, 0.0, uint32(0))
	f.Add(opteronLike, uint8(1), uint32(499), 0.3, 0.95, 1.2, 0.07, 0.02, 0.04, 0.01, uint32(170))
	f.Add([]byte{7, 0, 31, 0, 15, 1}, uint8(1), uint32(299), 0.3, 0.95, 1.0, 0.07, 0.02, 0.04, 0.0, uint32(0))
	f.Fuzz(func(t *testing.T, levels []byte, static uint8, n uint32, frac, gamma, pue, we, wd, onsite, sw float64,
		prev uint32) {
		hp := &HomogeneousProblem{
			Type: freeType(levels, static), N: 1 + int(n%216000), Gamma: gamma, PUE: pue,
			We: we, Wd: wd, SwitchWeight: sw,
		}
		fn := float64(hp.N)
		hp.PrevActive = int(int32(prev)) % (hp.N + 5)
		hp.OnsiteKW = onsite * fn
		hp.LambdaRPS = math.Abs(frac) * hp.Type.MaxRate() * fn
		kn := speedKernel{hp: hp}
		kn.compile()
		got, gotErr := kn.solve()
		want, wantErr := refHomogeneousSolve(hp)
		if gotErr != wantErr || !sameSolution(got, want) {
			t.Fatalf("%+v: Solve = %+v, %v; every speed in index order gives %+v, %v",
				hp.Type.Levels, got, gotErr, want, wantErr)
		}
		if hp.N > 500 {
			return
		}
		for k := 1; k <= hp.Type.NumSpeeds(); k++ {
			if kn.skipped&(1<<(k-1)) == 0 {
				continue
			}
			sk := hp.kernel(k)
			for m := windowLo(hp, k); m <= hp.N; m++ {
				if v, _, _, _ := sk.eval(m); !(v > got.Value) {
					t.Fatalf("%+v: speed %d skipped, but eval(%d) = %v is not above the answer %+v",
						hp.Type.Levels, k, m, v, got)
				}
			}
		}
	})
}

// TestHomogeneousSolveZeroAllocs pins that a solve at paper scale
// allocates nothing: the per-speed kernel and the probe closure stay on
// the stack.
func TestHomogeneousSolveZeroAllocs(t *testing.T) {
	hp := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 216000, Gamma: 0.95, PUE: 1,
		LambdaRPS: 6e5, We: 0.07, Wd: 0.02, OnsiteKW: 3000,
		SwitchWeight: 0.001, PrevActive: 70000,
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := hp.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Solve allocates %v times per call, want 0", allocs)
	}
}

// TestHomogeneousSolveLeavesProblemOnStack pins that Solve does not leak
// its receiver: a caller that builds the problem as a local value, as
// Scenario.P3At's callers do once per slot, must not pay a heap
// allocation for it.
func TestHomogeneousSolveLeavesProblemOnStack(t *testing.T) {
	st := dcmodel.Opteron()
	allocs := testing.AllocsPerRun(20, func() {
		hp := HomogeneousProblem{
			Type: st, N: 216000, Gamma: 0.95, PUE: 1,
			LambdaRPS: 6e5, We: 0.07, Wd: 0.02, OnsiteKW: 3000,
		}
		if _, err := hp.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a local problem costs %v allocations per Solve, want 0", allocs)
	}
}

// sameSolution compares two solutions bit for bit.
func sameSolution(a, b HomogeneousSolution) bool {
	return a.Speed == b.Speed && a.Active == b.Active &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		math.Float64bits(a.PowerKW) == math.Float64bits(b.PowerKW) &&
		math.Float64bits(a.GridKWh) == math.Float64bits(b.GridKWh) &&
		math.Float64bits(a.DelayCost) == math.Float64bits(b.DelayCost)
}
