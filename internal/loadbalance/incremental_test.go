package loadbalance

import (
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/stats"
)

// incrementalCase is one problem family for the mutation property test.
type incrementalCase struct {
	name string
	prob *dcmodel.SlotProblem
}

func incrementalCases() []incrementalCase {
	paper := dcmodel.PaperCluster(12)
	het := dcmodel.HeterogeneousCluster(40, 4)
	noDelay := dcmodel.HeterogeneousCluster(20, 2)
	return []incrementalCase{
		// Moderate load, active delay term, kink reachable via OnsiteKW.
		{"paper-kink", &dcmodel.SlotProblem{
			Cluster: paper, LambdaRPS: 0.3 * paper.MaxCapacityRPS(),
			We: 0.07, Wd: 0.02, OnsiteKW: 1.5,
		}},
		// High load so random mutations routinely cross the feasibility edge.
		{"paper-tight", &dcmodel.SlotProblem{
			Cluster: paper, LambdaRPS: 0.8 * paper.MaxCapacityRPS(),
			We: 0.05, Wd: 0.01,
		}},
		// Heterogeneous server generations: distinct slopes and speed counts.
		{"hetero", &dcmodel.SlotProblem{
			Cluster: het, LambdaRPS: 0.35 * het.MaxCapacityRPS(),
			We: 0.07, Wd: 0.02, OnsiteKW: 3,
		}},
		// Wd = 0 exercises the fillNoDelay path and its cached orders.
		{"no-delay", &dcmodel.SlotProblem{
			Cluster: noDelay, LambdaRPS: 0.4 * noDelay.MaxCapacityRPS(),
			We: 0.1, Wd: 0, OnsiteKW: 4,
		}},
	}
}

// solveFresh is the reference: a from-scratch NewInstance + Solve on a copy
// of the speed vector.
func solveFresh(p *dcmodel.SlotProblem, speeds []int) (dcmodel.Solution, error) {
	in, err := NewInstance(p, speeds)
	if err != nil {
		return dcmodel.Solution{}, err
	}
	return in.Solve()
}

// requireBitEqual fails unless the persistent instance's solve reproduces
// the fresh solve bit-for-bit (same error, same Value/Speeds/Load bits).
func requireBitEqual(t *testing.T, step int, p *dcmodel.SlotProblem, in *Instance, mirror []int) {
	t.Helper()
	want, wantErr := solveFresh(p, mirror)
	var got dcmodel.Solution
	gotErr := in.SolveInto(&got)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("step %d: error mismatch: fresh=%v persistent=%v (speeds %v)",
			step, wantErr, gotErr, mirror)
	}
	if wantErr != nil {
		if !errors.Is(gotErr, ErrInfeasible) || !errors.Is(wantErr, ErrInfeasible) {
			t.Fatalf("step %d: unexpected error kinds: fresh=%v persistent=%v", step, wantErr, gotErr)
		}
		return
	}
	if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
		t.Fatalf("step %d: Value %v != fresh %v (speeds %v)", step, got.Value, want.Value, mirror)
	}
	if len(got.Speeds) != len(want.Speeds) || len(got.Load) != len(want.Load) {
		t.Fatalf("step %d: shape mismatch: got %d/%d want %d/%d",
			step, len(got.Speeds), len(got.Load), len(want.Speeds), len(want.Load))
	}
	for g := range want.Speeds {
		if got.Speeds[g] != want.Speeds[g] {
			t.Fatalf("step %d: Speeds[%d] = %d, fresh %d", step, g, got.Speeds[g], want.Speeds[g])
		}
		if math.Float64bits(got.Load[g]) != math.Float64bits(want.Load[g]) {
			t.Fatalf("step %d: Load[%d] = %x, fresh %x (speeds %v)",
				step, g, math.Float64bits(got.Load[g]), math.Float64bits(want.Load[g]), mirror)
		}
	}
}

// TestIncrementalMatchesFreshSolve drives a randomized SetSpeed/Revert/
// Commit sequence against one persistent Instance and checks after every
// mutation that it solves bit-for-bit identically to a fresh build of the
// same speed vector, and that O(1) Feasible agrees with the full-problem
// check.
func TestIncrementalMatchesFreshSolve(t *testing.T) {
	for _, tc := range incrementalCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.prob
			n := len(p.Cluster.Groups)
			rng := stats.NewRNG(0xC0CA + uint64(n))
			speeds := make([]int, n)
			for g := range speeds {
				speeds[g] = p.Cluster.Groups[g].Type.NumSpeeds()
			}
			in, err := NewInstance(p, speeds)
			if err != nil {
				t.Fatalf("initial NewInstance: %v", err)
			}
			mirror := append([]int(nil), speeds...)
			requireBitEqual(t, -1, p, in, mirror)
			for step := 0; step < 400; step++ {
				g := rng.IntN(n)
				k := rng.IntN(p.Cluster.Groups[g].Type.NumSpeeds() + 1)
				if err := in.SetSpeed(g, k); err != nil {
					t.Fatalf("step %d: SetSpeed(%d, %d): %v", step, g, k, err)
				}
				if rng.Float64() < 0.4 {
					in.Revert()
				} else {
					mirror[g] = k
					in.Commit()
				}
				if got, want := in.Feasible(), p.Feasible(mirror); got != want {
					t.Fatalf("step %d: Feasible() = %v, full check = %v (speeds %v)",
						step, got, want, mirror)
				}
				for i, s := range in.Speeds() {
					if s != mirror[i] {
						t.Fatalf("step %d: instance speeds %v desynced from mirror %v",
							step, in.Speeds(), mirror)
					}
				}
				requireBitEqual(t, step, p, in, mirror)
			}
		})
	}
}

// TestRevertRestoresAfterFailedSolve pins that a SetSpeed whose solve fails
// (infeasible capacity) reverts to a state that still solves exactly like
// the pre-mutation instance.
func TestRevertRestoresAfterFailedSolve(t *testing.T) {
	paper := dcmodel.PaperCluster(4)
	p := &dcmodel.SlotProblem{
		Cluster: paper, LambdaRPS: 0.9 * paper.MaxCapacityRPS(),
		We: 0.05, Wd: 0.02,
	}
	speeds := make([]int, 4)
	for g := range speeds {
		speeds[g] = paper.Groups[g].Type.NumSpeeds()
	}
	in, err := NewInstance(p, speeds)
	if err != nil {
		t.Fatal(err)
	}
	var before dcmodel.Solution
	if err := in.SolveInto(&before); err != nil {
		t.Fatal(err)
	}
	// Turning a group off at 90% load must be infeasible.
	if err := in.SetSpeed(0, 0); err != nil {
		t.Fatal(err)
	}
	var during dcmodel.Solution
	if err := in.SolveInto(&during); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("SolveInto after overload = %v, want ErrInfeasible", err)
	}
	if in.Feasible() {
		t.Fatal("Feasible() = true with a group off at 90% load")
	}
	in.Revert()
	var after dcmodel.Solution
	if err := in.SolveInto(&after); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(after.Value) != math.Float64bits(before.Value) {
		t.Fatalf("Value after revert %v != before %v", after.Value, before.Value)
	}
	for g := range before.Load {
		if math.Float64bits(after.Load[g]) != math.Float64bits(before.Load[g]) {
			t.Fatalf("Load[%d] after revert %v != before %v", g, after.Load[g], before.Load[g])
		}
	}
}

// TestSetSpeedValidation pins the argument checks.
func TestSetSpeedValidation(t *testing.T) {
	c := twoGroups(false)
	p := &dcmodel.SlotProblem{Cluster: c, LambdaRPS: 50, We: 0.05, Wd: 0.01}
	in, err := NewInstance(p, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.SetSpeed(-1, 1); err == nil {
		t.Error("SetSpeed(-1, 1) accepted")
	}
	if err := in.SetSpeed(2, 1); err == nil {
		t.Error("SetSpeed(2, 1) accepted")
	}
	if err := in.SetSpeed(0, c.Groups[0].Type.NumSpeeds()+1); err == nil {
		t.Error("SetSpeed with speed out of range accepted")
	}
	// Failed validation must leave the instance untouched.
	sol, err := in.Solve()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Solve(p, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sol.Value) != math.Float64bits(fresh.Value) {
		t.Fatalf("instance diverged after rejected SetSpeed: %v != %v", sol.Value, fresh.Value)
	}
}

// requireFreshClasses fails unless in's class table, kept by delta, agrees
// with the table a fresh build of the same speed vector makes, compared by
// class id (a delta-kept table's rows are in no particular order): every
// on group's row has the fresh row's id, constants and count, the live rows
// are exactly the rows with members and as many as the fresh build's, the
// class slots name exactly the rows, and ZeroDerivRange, whose extremes set
// every fill's bracket, is bit-equal to the fresh build's at the grid and
// surplus weights.
func requireFreshClasses(t *testing.T, step int, in *Instance, p *dcmodel.SlotProblem, mirror []int) {
	t.Helper()
	fresh, err := NewInstance(p, mirror)
	if err != nil {
		if errors.Is(err, ErrInfeasible) {
			return
		}
		t.Fatal(err)
	}
	got, want := &in.cls, &fresh.cls
	if !slices.Equal(in.gIdx, fresh.gIdx) {
		t.Fatalf("step %d: on groups %v, fresh %v", step, in.gIdx, fresh.gIdx)
	}
	for i := range in.gRow {
		g, w := got.rows[in.gRow[i]], want.rows[fresh.gRow[i]]
		if g.id != w.id || math.Float64bits(g.rate) != math.Float64bits(w.rate) ||
			math.Float64bits(g.cap) != math.Float64bits(w.cap) ||
			math.Float64bits(g.slope) != math.Float64bits(w.slope) ||
			math.Float64bits(g.wdnr) != math.Float64bits(w.wdnr) ||
			g.cnt != w.cnt || g.n != w.n || g.staticKW != w.staticKW ||
			g.compKW != w.compKW || g.x != w.x {
			t.Fatalf("step %d: on group %d's class row %+v, fresh %+v", step, in.gIdx[i], g, w)
		}
	}
	if len(got.live) != len(want.live) {
		t.Fatalf("step %d: %d live rows, fresh %d", step, len(got.live), len(want.live))
	}
	var cnt float64
	for pos, r := range got.live {
		if c := got.rows[r]; c.cnt <= 0 || int(c.live) != pos {
			t.Fatalf("step %d: live[%d] = row %d with count %v and live position %d", step, pos, r, c.cnt, c.live)
		}
		cnt += got.rows[r].cnt
	}
	if int(cnt) != len(in.gRow) {
		t.Fatalf("step %d: live class counts sum to %v over %d on groups", step, cnt, len(in.gRow))
	}
	for r, c := range got.rows {
		if got.slot[c.id] != int32(r) {
			t.Fatalf("step %d: row %d holds class %d, whose slot is %d", step, r, c.id, got.slot[c.id])
		}
		if c.cnt == 0 && slices.Contains(got.live, int32(r)) {
			t.Fatalf("step %d: empty row %d is live", step, r)
		}
	}
	named := 0
	for _, r := range got.slot {
		if r >= 0 {
			named++
		}
	}
	if named != len(got.rows) {
		t.Fatalf("step %d: %d class slots name a row, %d rows", step, named, len(got.rows))
	}
	for _, omega := range []float64{p.We, 0} {
		in.sys.prepare(omega)
		fresh.sys.prepare(omega)
		lo, hi := in.sys.ZeroDerivRange()
		wlo, whi := fresh.sys.ZeroDerivRange()
		if math.Float64bits(lo) != math.Float64bits(wlo) || math.Float64bits(hi) != math.Float64bits(whi) {
			t.Fatalf("step %d, ω = %v: ZeroDerivRange [%v, %v], fresh [%v, %v]", step, omega, lo, hi, wlo, whi)
		}
	}
}

// TestClassBookkeepingMatchesFresh drives random SetSpeed/Revert/Commit
// sequences — including a second SetSpeed while one is still pending, whose
// Revert must undo only the second — over the class-path cluster families,
// and requires after every step that SolveInto is bit-equal to a fresh
// NewInstance and that the live-class table is the one a fresh build makes.
func TestClassBookkeepingMatchesFresh(t *testing.T) {
	for _, fam := range classFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			c := fam.cluster
			n := len(c.Groups)
			p := &dcmodel.SlotProblem{
				Cluster: c, LambdaRPS: 0.3 * c.MaxCapacityRPS(),
				We: 0.07, Wd: 0.02, OnsiteKW: 0.002 * c.PeakPowerKW(),
			}
			rng := stats.NewRNG(0xC1A55 + uint64(n))
			mirror := make([]int, n)
			for g := range mirror {
				mirror[g] = 1 + rng.IntN(c.Groups[g].Type.NumSpeeds())
			}
			in, err := NewInstance(p, mirror)
			if err != nil {
				t.Fatal(err)
			}
			pending, lastG, lastK := false, 0, 0
			for step := 0; step < 300; step++ {
				switch op := rng.IntN(10); {
				case op < 5 || !pending:
					g := rng.IntN(n)
					k := rng.IntN(c.Groups[g].Type.NumSpeeds() + 1)
					if err := in.SetSpeed(g, k); err != nil {
						t.Fatalf("step %d: SetSpeed(%d, %d): %v", step, g, k, err)
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
				requireBitEqual(t, step, p, in, mirror)
				requireFreshClasses(t, step, in, p, mirror)
			}
		})
	}
}
