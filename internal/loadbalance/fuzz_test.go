package loadbalance

import (
	"math"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/stats"
)

// fuzzCluster builds a duplicate-heavy cluster of n groups over a few
// shapes or, when skewed, one dominant group followed by n−1 dust groups
// whose static power and rates are exactly 2⁻⁵³ of the dominant group's
// (the same server type scaled by N₀·2⁻⁵³, at N = 1). A dust term of a
// tracked sum is then half an ulp of the dominant one, which the ascending
// sum drops at every addition (the static sum is a power of two, so the
// tie rounds back to it) while the class estimate keeps all of them: the
// estimate sits about (n−1)·u above the exact sum, close to the most its
// numopt.ClassSumSlack must absorb.
func fuzzCluster(rng *stats.RNG, n, shapes int, skewed bool) *dcmodel.Cluster {
	c := &dcmodel.Cluster{Gamma: 0.95, PUE: 1}
	if skewed {
		const n0 = 1024
		big := dcmodel.Opteron()
		big.StaticKW = 0.125 // n₀·p_s = 2⁷
		dust := scaledType(big, n0*0x1p-53, n0*0x1p-53, n0*0x1p-53)
		c.Groups = append(c.Groups, dcmodel.Group{Type: big, N: n0})
		for g := 1; g < n; g++ {
			c.Groups = append(c.Groups, dcmodel.Group{Type: dust, N: 1})
		}
		return c
	}
	c.Gamma = rng.Uniform(0.5, 0.99)
	c.PUE = []float64{1, 1.2, 1.37}[rng.IntN(3)]
	kinds := make([]dcmodel.Group, shapes)
	for i := range kinds {
		kinds[i] = dcmodel.Group{
			Type: scaledType(dcmodel.Opteron(), rng.Uniform(0.5, 2), rng.Uniform(0.5, 2), rng.Uniform(0.5, 2)),
			N:    1 + rng.IntN(40),
		}
	}
	for g := 0; g < n; g++ {
		c.Groups = append(c.Groups, kinds[rng.IntN(shapes)])
	}
	return c
}

// scaledType is base with its rates, computing power and static power
// scaled.
func scaledType(base dcmodel.ServerType, rate, power, static float64) dcmodel.ServerType {
	st := dcmodel.ServerType{Name: base.Name, StaticKW: base.StaticKW * static}
	for _, l := range base.Levels {
		st.Levels = append(st.Levels, dcmodel.SpeedLevel{
			FreqGHz: l.FreqGHz,
			BusyKW:  st.StaticKW + (l.BusyKW-base.StaticKW)*power,
			RateRPS: l.RateRPS * rate,
		})
	}
	return st
}

// ulps returns x moved k floats up (k > 0) or down.
func ulps(x float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// FuzzIncrementalCertificates drives random SetSpeed/Revert/Commit
// sequences on random duplicate-heavy clusters (skewed ones included, see
// fuzzCluster) with λ and the on-site supply aimed, at every step, where
// the tracked sums' certificates are undecided: λ at 0, or within a few
// ulps of the γ-capacity, of its (1+10⁻¹²) feasibility margin or of
// SlotProblem.Feasible's edge, and the supply within a few ulps of where
// the static power alone settles the grid regime (powerTol above it).
// After every step Feasible must be SlotProblem.Feasible and Fits the
// γ-capacity test on the exact sums; SolveInto must reproduce the
// old-layout reference (exact sums, per-group fill) and a fresh NewInstance
// bit for bit, with the reference's regime and the fresh build's dual;
// SolveDistributedInto must reproduce SolveInto; and the lower bound at the
// split's own dual must not exceed its value.
func FuzzIncrementalCertificates(f *testing.F) {
	f.Add(uint64(1), uint8(60), uint8(2), true, uint8(40), uint8(0), int8(3), int8(2))
	f.Add(uint64(2), uint8(90), uint8(1), true, uint8(30), uint8(1), int8(-4), int8(-1))
	f.Add(uint64(3), uint8(120), uint8(3), false, uint8(50), uint8(2), int8(7), int8(1))
	f.Add(uint64(4), uint8(40), uint8(2), false, uint8(20), uint8(3), int8(-9), int8(0))
	f.Add(uint64(5), uint8(200), uint8(4), true, uint8(60), uint8(4), int8(1), int8(5))
	f.Add(uint64(6), uint8(17), uint8(1), false, uint8(25), uint8(6), int8(0), int8(-3))
	f.Fuzz(func(t *testing.T, seed uint64, groups, shapes uint8, skewed bool, steps, mode uint8, lamUlps, onsiteUlps int8) {
		rng := stats.NewRNG(seed)
		n := 2 + int(groups)%120
		c := fuzzCluster(rng, n, 1+int(shapes)%4, skewed)
		p := &dcmodel.SlotProblem{Cluster: c, We: 0.07, Wd: []float64{0.02, 0.02, 0}[mode%3]}
		mirror := make([]int, n)
		for g := range mirror {
			mirror[g] = 1 + rng.IntN(c.Groups[g].Type.NumSpeeds())
		}
		in, err := NewInstance(p, mirror)
		if err != nil {
			t.Fatal(err)
		}
		pending, lastG, lastK := false, 0, 0
		var sol, dist dcmodel.Solution
		for step := 0; step < 1+int(steps)%64; step++ {
			switch op := rng.IntN(10); {
			case op < 6 || !pending:
				g := rng.IntN(n)
				k := rng.IntN(c.Groups[g].Type.NumSpeeds() + 1)
				if err := in.SetSpeed(g, k); err != nil {
					t.Fatal(err)
				}
				pending, lastG, lastK = true, g, mirror[g]
				mirror[g] = k
			case op < 8:
				in.Revert()
				mirror[lastG] = lastK
				pending = false
			default:
				in.Commit()
				pending = false
			}
			ref := newRefSolver(p, mirror)
			var rates float64
			for g, k := range mirror {
				rates += c.Groups[g].RateAt(k)
			}
			k := int(lamUlps) + rng.IntN(5) - 2
			switch (int(mode) + step) % 5 {
			case 0:
				p.LambdaRPS = 0
			case 1:
				p.LambdaRPS = ulps(ref.capSum*(1+1e-12), k)
			case 2:
				p.LambdaRPS = ulps(ref.capSum, k)
			case 3:
				p.LambdaRPS = ulps(rates*c.Gamma*(1+1e-12), k)
			default:
				p.LambdaRPS = rng.Float64() * ref.capSum
			}
			p.LambdaRPS = math.Max(p.LambdaRPS, 0)
			p.OnsiteKW = 0
			if (int(mode)+step)%3 != 2 {
				p.OnsiteKW = math.Max(ulps(ref.baseKW, int(onsiteUlps)+rng.IntN(3)-1)+powerTol, 0)
			}

			if got, want := in.Feasible(), p.Feasible(mirror); got != want {
				t.Fatalf("step %d: Feasible() = %v, SlotProblem.Feasible %v (λ %v)", step, got, want, p.LambdaRPS)
			}
			if got, want := in.Fits(), p.LambdaRPS <= ref.capSum*(1+1e-12); got != want {
				t.Fatalf("step %d: Fits() = %v, exact γ-capacity test %v (λ %v, capacity %v)", step, got, want, p.LambdaRPS, ref.capSum)
			}
			gotErr := in.SolveInto(&sol)
			want, wantErr := ref.solve()
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("step %d: SolveInto err %v, reference err %v (λ %v)", step, gotErr, wantErr, p.LambdaRPS)
			}
			requireBitEqual(t, step, p, in, mirror)
			if gotErr != nil {
				continue
			}
			if math.Float64bits(sol.Value) != math.Float64bits(want.Value) {
				t.Fatalf("step %d: Value %v, reference %v", step, sol.Value, want.Value)
			}
			for g := range want.Load {
				if math.Float64bits(sol.Load[g]) != math.Float64bits(want.Load[g]) {
					t.Fatalf("step %d: Load[%d] = %v, reference %v", step, g, sol.Load[g], want.Load[g])
				}
			}
			nu, mu := in.Dual()
			if (ref.regime == "grid" && mu != 1) || (ref.regime == "surplus" && mu != 0) {
				t.Fatalf("step %d: dual weight %v in the reference's %s regime", step, mu, ref.regime)
			}
			fresh, err := NewInstance(p, mirror)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Solve(); err != nil {
				t.Fatal(err)
			}
			if fnu, fmu := fresh.Dual(); math.Float64bits(nu) != math.Float64bits(fnu) || math.Float64bits(mu) != math.Float64bits(fmu) {
				t.Fatalf("step %d: dual (%v, %v), fresh build (%v, %v)", step, nu, mu, fnu, fmu)
			}
			if lb := in.LowerBound(nu, mu); !(lb <= sol.Value) {
				t.Fatalf("step %d: lower bound %v above the split's value %v", step, lb, sol.Value)
			}
			if p.Wd > 0 {
				if _, err := in.SolveDistributedInto(&dist); err != nil {
					t.Fatalf("step %d: distributed split: %v", step, err)
				}
				if math.Float64bits(dist.Value) != math.Float64bits(sol.Value) {
					t.Fatalf("step %d: distributed Value %v, centralized %v", step, dist.Value, sol.Value)
				}
				for g := range sol.Load {
					if math.Float64bits(dist.Load[g]) != math.Float64bits(sol.Load[g]) {
						t.Fatalf("step %d: distributed Load[%d] = %v, centralized %v", step, g, dist.Load[g], sol.Load[g])
					}
				}
			}
		}
	})
}
