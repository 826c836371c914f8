package p3

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
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
		hs := &HomogeneousSolver{}
		fast, err := hs.Solve(p)
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

func TestHomogeneousSolverGroupMapping(t *testing.T) {
	c := &dcmodel.Cluster{
		Groups: []dcmodel.Group{
			{Type: dcmodel.Opteron(), N: 30},
			{Type: dcmodel.Opteron(), N: 30},
		},
		Gamma: 0.95, PUE: 1,
	}
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 200, We: 0.05, Wd: 0.01}
	hs := &HomogeneousSolver{}
	sol, err := hs.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConfig(sol.Speeds, sol.Load); err != nil {
		t.Fatalf("invalid group mapping: %v", err)
	}
	var sum float64
	for _, l := range sol.Load {
		sum += l
	}
	if math.Abs(sum-200) > 1e-6 {
		t.Errorf("Σload = %v, want 200", sum)
	}
}

func TestHomogeneousSolverRejectsMixedTypes(t *testing.T) {
	c := dcmodel.HeterogeneousCluster(90, 3)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 10, We: 1, Wd: 0.01}
	hs := &HomogeneousSolver{}
	if _, err := hs.Solve(p); err == nil {
		t.Error("mixed-type cluster accepted")
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
// weights; and, on top of a plain instance, a switching penalty, a
// peak-power cap, a delay cap and a tiered tariff.
func goldenProblems(t testing.TB) []*HomogeneousProblem {
	tiers, err := dcmodel.NewTieredTariff([]dcmodel.Tier{
		{UpToKWh: 5, Mult: 1},
		{UpToKWh: 4000, Mult: 1.5},
		{UpToKWh: math.Inf(1), Mult: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []*HomogeneousProblem
	for _, st := range []dcmodel.ServerType{dcmodel.Opteron(), cubicType()} {
		for _, n := range []int{50, 216000} {
			capRPS := 0.95 * st.MaxRate() * float64(n)
			for _, frac := range []float64{0, 0.013, 0.5, 0.985} {
				for _, pue := range []float64{1, 1.3} {
					for variant := 0; variant < 10; variant++ {
						// Odd variants weight energy over delay, so slower
						// speeds and the caps come into play.
						we, wd := 0.07, 0.02
						if variant%2 == 1 {
							we, wd = 40, 0.001
						}
						hp := &HomogeneousProblem{
							Type: st, N: n, Gamma: 0.95, PUE: pue,
							LambdaRPS: frac * capRPS, We: we, Wd: wd,
							OnsiteKW: 0.04 * float64(n),
						}
						switch variant / 2 {
						case 1:
							hp.SwitchWeight = 0.003
							hp.PrevActive = n / 3
						case 2:
							hp.MaxPowerKW = 0.12 * float64(n) * pue
						case 3:
							hp.MaxDelayCost = 3 * hp.LambdaRPS / 10
							if hp.MaxDelayCost == 0 {
								hp.MaxDelayCost = 1
							}
						case 4:
							w := hp.We
							hp.GridCostFn = func(g float64) float64 { return w * tiers.Cost(g) }
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
	const want = "fnv1a:be8fcd4d5c2bb30d"
	h := fnv.New64a()
	put := func(vs ...float64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	infeasible := 0
	for i, hp := range goldenProblems(t) {
		sol, err := hp.Solve()
		switch {
		case errors.Is(err, ErrInfeasible):
			infeasible++
			put(-1)
			continue
		case err != nil:
			t.Fatalf("problem %d: %v", i, err)
		}
		put(float64(sol.Speed), float64(sol.Active), sol.Value,
			sol.PowerKW, sol.GridKWh, sol.DelayCost)
	}
	if infeasible == 0 {
		t.Error("the grid has no infeasible instance; the caps never bind")
	}
	if got := fmt.Sprintf("fnv1a:%016x", h.Sum64()); got != want {
		t.Errorf("homogeneous solve hash = %s, want %s (solver arithmetic drifted)", got, want)
	}
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
	if hp.MaxPowerKW > 0 && sol.PowerKW > hp.MaxPowerKW*(1+1e-12) {
		return math.Inf(1), sol
	}
	if hp.MaxDelayCost > 0 && sol.DelayCost > hp.MaxDelayCost*(1+1e-12) {
		return math.Inf(1), sol
	}
	grid := hp.We * sol.GridKWh
	if hp.GridCostFn != nil {
		grid = hp.GridCostFn(sol.GridKWh)
	}
	sol.Value = grid + hp.Wd*sol.DelayCost + hp.switchPenalty(m)
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
// [p − r]^+ (a difference of exactly +0 and of −0, and a NaN one) and the
// caps' tolerance.
func TestHomogeneousKernelMatchesOracle(t *testing.T) {
	for _, hp := range goldenProblems(t) {
		stride := 1
		if hp.N > 1000 {
			stride = 97
		}
		checkKernel(t, hp, stride)
	}

	for _, hp := range kernelCorners(t) {
		checkKernel(t, hp, 1)
	}
}

// kernelCorners returns small problems at the kernel's corners: the
// corners of [p − r]^+ (a difference of exactly +0 and of −0, and a NaN
// one) and caps that admit a count only through their tolerance.
func kernelCorners(t *testing.T) []*HomogeneousProblem {
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
	// Caps a hair below the power at m = 30 and the delay at m = 15, so
	// both counts pass only through the (1 + 1e-12) tolerance.
	caps := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 40, Gamma: 1, PUE: 1.2,
		LambdaRPS: 120, We: 1, Wd: 1,
	}
	_, at30 := oracleObjective(caps, 4, 30)
	_, at15 := oracleObjective(caps, 4, 15)
	caps.MaxPowerKW = at30.PowerKW / (1 + 1e-13)
	caps.MaxDelayCost = at15.DelayCost / (1 + 1e-13)
	if v, _ := oracleObjective(caps, 4, 30); math.IsInf(v, 1) {
		t.Fatal("the power cap's tolerance does not admit m = 30")
	}
	return []*HomogeneousProblem{exact, negZero, nan, caps}
}

// FuzzHomogeneousKernel checks the kernel against oracleObjective bit for
// bit on random problems, with unrestricted weights, PUE, γ, supply and
// caps, at every count of a fleet of up to 400 servers.
func FuzzHomogeneousKernel(f *testing.F) {
	f.Add(uint16(50), 0.5, 0.95, 1.0, 0.07, 0.02, 2.0, 0.0, uint16(0), 0.0, 0.0, false, false)
	f.Add(uint16(400), 0.99, 0.95, 1.3, 40.0, 0.001, 10.0, 0.003, uint16(130), 50.0, 80.0, true, true)
	f.Add(uint16(7), 0.0, 0.5, 1.1, 1.0, 1.0, 0.0, 0.5, uint16(3), 0.0, 0.0, false, true)
	f.Fuzz(func(t *testing.T, n uint16, frac, gamma, pue, we, wd, onsite, sw float64,
		prev uint16, maxPower, maxDelay float64, cubic, tiered bool) {
		hp := &HomogeneousProblem{
			Type: dcmodel.Opteron(), N: 1 + int(n%400), Gamma: gamma, PUE: pue,
			We: we, Wd: wd, OnsiteKW: onsite,
			SwitchWeight: sw, PrevActive: int(prev % 401),
			MaxPowerKW: maxPower, MaxDelayCost: maxDelay,
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
		if tiered {
			tiers, err := dcmodel.NewTieredTariff([]dcmodel.Tier{
				{UpToKWh: 1, Mult: 1},
				{UpToKWh: math.Inf(1), Mult: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			hp.GridCostFn = func(g float64) float64 { return we * tiers.Cost(g) }
		}
		checkKernel(t, hp, 1)
	})
}

// speedSearch is one speed's kernel and the count window Solve searches.
type speedSearch struct {
	kn        speedKernel
	k, lo, hi int
}

// speedWindows returns a speedSearch for each speed of hp whose count
// window is non-empty.
func speedWindows(hp *HomogeneousProblem) []speedSearch {
	var ws []speedSearch
	for k := 1; k <= hp.Type.NumSpeeds(); k++ {
		lo, hi, ok := hp.countBounds(k)
		if !ok || lo > hp.N {
			continue
		}
		if hi > hp.N {
			hi = hp.N
		}
		ws = append(ws, speedSearch{kn: hp.kernel(k), k: k, lo: lo, hi: hi})
	}
	return ws
}

// checkBound checks that every speed's bound is at most each finite probe
// of its window: at every count when every is set, else at every 97th
// count, both ends and every count within ±50 of the speed's argmin. It
// returns the largest relative gap between a speed's least probe and its
// bound, over the speeds whose bound is finite.
func checkBound(t *testing.T, hp *HomogeneousProblem, every bool) (gap float64) {
	t.Helper()
	for _, w := range speedWindows(hp) {
		b := w.kn.bound(w.lo, w.hi)
		argmin, least := numopt.MinimizeInt(func(m int) float64 {
			v, _, _, _ := w.kn.eval(m)
			return v
		}, w.lo, w.hi, 3)
		check := func(m int) {
			if m < w.lo || m > w.hi {
				return
			}
			if v, _, _, _ := w.kn.eval(m); b > v && !math.IsInf(v, 1) && !math.IsNaN(v) {
				t.Fatalf("N=%d k=%d window [%d, %d]: bound %v above eval(%d) = %v",
					hp.N, w.k, w.lo, w.hi, b, m, v)
			}
		}
		stride := 1
		if !every {
			stride = 97
			for m := argmin - 50; m <= argmin+50; m++ {
				check(m)
			}
		}
		for m := w.lo; m <= w.hi; m += stride {
			check(m)
		}
		check(w.hi)
		if !math.IsInf(b, -1) && least != 0 && !math.IsInf(least, 0) {
			gap = math.Max(gap, (least-b)/math.Abs(least))
		}
	}
	return gap
}

// TestSpeedBoundBelowEveryProbe checks speedKernel.bound, which lets Solve
// skip speeds, against the probes it must not exceed: over the golden grid
// (every count for N ≤ 1,000, a stride and each argmin's neighbourhood at
// N = 216,000) and the kernel corners. The bound must also certify
// something where the paper's runs need it: finite, and within 1e-5 of the
// least probe, for every golden instance at N = 216,000 with load, a
// linear tariff and no switching penalty (which the bound leaves out).
func TestSpeedBoundBelowEveryProbe(t *testing.T) {
	for i, hp := range goldenProblems(t) {
		gap := checkBound(t, hp, hp.N <= 1000)
		if hp.N > 1000 && hp.LambdaRPS > 0 && hp.GridCostFn == nil && hp.SwitchWeight == 0 {
			for _, w := range speedWindows(hp) {
				if math.IsInf(w.kn.bound(w.lo, w.hi), -1) {
					t.Errorf("problem %d, speed %d: bound certifies nothing", i, w.k)
				}
			}
			if gap > 1e-5 {
				t.Errorf("problem %d: bound %.3g below the least probe", i, gap)
			}
		}
	}
	for _, hp := range kernelCorners(t) {
		checkBound(t, hp, true)
	}
}

// refHomogeneousSolve is HomogeneousProblem.Solve as it was before speeds
// were skipped on their bounds: every speed searched in index order.
func refHomogeneousSolve(hp *HomogeneousProblem) (HomogeneousSolution, error) {
	if hp.N <= 0 || hp.LambdaRPS < 0 || math.IsNaN(hp.LambdaRPS) {
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
		minM, maxM, ok := hp.countBounds(k)
		if !ok || minM > hp.N {
			continue
		}
		if maxM > hp.N {
			maxM = hp.N
		}
		kn := hp.kernel(k)
		m, val := numopt.MinimizeInt(func(m int) float64 {
			v, _, _, _ := kn.eval(m)
			return v
		}, minM, maxM, 3)
		if val < bestVal {
			bestVal, best = hp.objective(k, m)
		}
	}
	if math.IsInf(bestVal, 1) {
		return HomogeneousSolution{}, ErrInfeasible
	}
	return best, nil
}

// FuzzHomogeneousSolve checks Solve against refHomogeneousSolve bit for
// bit (speed, count, value, power, grid energy, delay cost and error) on
// random problems of up to 216,000 servers: unrestricted λ, weights, PUE,
// γ and supply, with switching, both caps, a tiered tariff and either
// server type. Supply and caps are drawn per server and scaled by N. Up
// to 500 servers it also checks every speed's bound against every probe.
func FuzzHomogeneousSolve(f *testing.F) {
	f.Add(uint32(215999), 0.3, 0.95, 1.0, 0.07, 0.02, 0.04, 0.0, uint32(0), 0.0, 0.0, false, false)
	f.Add(uint32(49), 0.5, 0.95, 1.3, 40.0, 0.001, 0.04, 0.003, uint32(16), 0.12, 0.0, false, false)
	f.Add(uint32(215999), 0.985, 0.95, 1.3, 40.0, 0.001, 0.04, 0.0, uint32(0), 0.0, 0.5, true, false)
	f.Add(uint32(9999), 0.2, 1.0, 1.1, 3.0, 0.5, 0.1, 0.01, uint32(5000), 0.3, 2.0, true, true)
	f.Fuzz(func(t *testing.T, n uint32, frac, gamma, pue, we, wd, onsite, sw float64,
		prev uint32, maxPower, maxDelay float64, cubic, tiered bool) {
		hp := &HomogeneousProblem{
			Type: dcmodel.Opteron(), N: 1 + int(n%216000), Gamma: gamma, PUE: pue,
			We: we, Wd: wd, SwitchWeight: sw,
		}
		fn := float64(hp.N)
		hp.PrevActive = int(prev % uint32(hp.N+1))
		hp.OnsiteKW, hp.MaxPowerKW, hp.MaxDelayCost = onsite*fn, maxPower*fn, maxDelay*fn
		if cubic {
			hp.Type = cubicType()
		}
		hp.LambdaRPS = math.Abs(frac) * hp.Type.MaxRate() * fn
		if tiered {
			tiers, err := dcmodel.NewTieredTariff([]dcmodel.Tier{
				{UpToKWh: fn / 50, Mult: 1},
				{UpToKWh: math.Inf(1), Mult: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			hp.GridCostFn = func(g float64) float64 { return we * tiers.Cost(g) }
		}
		if hp.N <= 500 && hp.LambdaRPS > 0 {
			checkBound(t, hp, true)
		}
		got, gotErr := hp.Solve()
		want, wantErr := refHomogeneousSolve(hp)
		if gotErr != wantErr || !sameSolution(got, want) {
			t.Fatalf("Solve = %+v, %v; every speed in index order gives %+v, %v",
				got, gotErr, want, wantErr)
		}
	})
}

// TestHomogeneousSolveZeroAllocs pins that a solve at paper scale without
// a tariff callback allocates nothing: the per-speed kernel and the probe
// closure stay on the stack.
func TestHomogeneousSolveZeroAllocs(t *testing.T) {
	hp := &HomogeneousProblem{
		Type: dcmodel.Opteron(), N: 216000, Gamma: 0.95, PUE: 1,
		LambdaRPS: 6e5, We: 0.07, Wd: 0.02, OnsiteKW: 3000,
		SwitchWeight: 0.001, PrevActive: 70000, MaxPowerKW: 4e4, MaxDelayCost: 1e6,
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
