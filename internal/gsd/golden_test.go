package gsd

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/dcmodel"
)

// The hashes below were captured from the pre-optimization engine (the
// NewInstance-per-proposal, Clone-per-acceptance implementation) and pin the
// incremental hot path bit-for-bit: identical RNG draw sequence, identical
// float arithmetic in every solve, identical incumbent/best-ever evolution
// and history. Any last-ulp drift in the persistent-instance bookkeeping —
// a delta-updated sum, a reordered accumulation, a skipped solve that
// should have drawn randomness — changes a hash.

// digest folds float64s into FNV-1a as little-endian IEEE-754 bits, the
// recipe of every golden result hash in the repository.
type digest struct{ hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) put(vs ...float64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		d.Write(buf[:])
	}
}

func (d digest) sum() string { return fmt.Sprintf("fnv1a:%016x", d.Sum64()) }

// putSolve folds a Result's Value, Iters, Accepted, Speeds and Load.
func (d digest) putSolve(res Result) {
	d.put(res.Solution.Value, float64(res.Iters), float64(res.Accepted))
	for _, s := range res.Solution.Speeds {
		d.put(float64(s))
	}
	d.put(res.Solution.Load...)
}

// hashRun digests one Result: putSolve's fields, then History.
func hashRun(res Result) string {
	d := newDigest()
	d.putSolve(res)
	d.put(res.History...)
	return d.sum()
}

func hashSolutions(sols []dcmodel.Solution) string {
	d := newDigest()
	for _, s := range sols {
		d.put(s.Value)
		for _, sp := range s.Speeds {
			d.put(float64(sp))
		}
		d.put(s.Load...)
	}
	return d.sum()
}

// TestGoldenSolveHashes replays fixed seeded runs across the solver's
// regimes — the BenchmarkGSD500Iters200Groups workload at two seeds and
// streamed over seeds 0–9 (History left out), a small kink-heavy problem, a heterogeneous cluster, and the Wd = 0
// fillNoDelay path — and requires the exact pre-optimization result bits.
func TestGoldenSolveHashes(t *testing.T) {
	paper := func(seed uint64) Result {
		cluster := dcmodel.PaperCluster(200)
		prob := &dcmodel.SlotProblem{
			Cluster: cluster, LambdaRPS: 0.3 * cluster.MaxCapacityRPS(),
			We: 0.05, Wd: 0.02,
		}
		res, err := Solve(prob, Options{Delta: 1e8, MaxIters: 500, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cases := []struct {
		name string
		want string
		run  func(t *testing.T) string
	}{
		{"paper-seed0", "fnv1a:f05b3282f545a085", func(t *testing.T) string {
			return hashRun(paper(0))
		}},
		{"paper-seed7", "fnv1a:aebe49b4af208c7b", func(t *testing.T) string {
			return hashRun(paper(7))
		}},
		{"paper-seeds0-9", "fnv1a:f3ec8576db004544", func(t *testing.T) string {
			d := newDigest()
			for seed := uint64(0); seed < 10; seed++ {
				d.putSolve(paper(seed))
			}
			return d.sum()
		}},
		{"kink", "fnv1a:8f83c9ccf29b00e7", func(t *testing.T) string {
			res, err := Solve(smallProblem(6, 100),
				Options{Delta: 1e4, MaxIters: 800, Seed: 42, RecordHistory: true})
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(res)
		}},
		{"hetero", "fnv1a:87723ac18d3313b6", func(t *testing.T) string {
			hc := dcmodel.HeterogeneousCluster(240, 12)
			prob := &dcmodel.SlotProblem{
				Cluster: hc, LambdaRPS: 0.35 * hc.MaxCapacityRPS(),
				We: 0.07, Wd: 0.02, OnsiteKW: 3,
			}
			res, err := Solve(prob,
				Options{Delta: 1e5, MaxIters: 600, Seed: 5, RecordHistory: true})
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(res)
		}},
		{"no-delay", "fnv1a:6d2425c0e4f31a48", func(t *testing.T) string {
			nc := dcmodel.HeterogeneousCluster(60, 6)
			prob := &dcmodel.SlotProblem{
				Cluster: nc, LambdaRPS: 0.3 * nc.MaxCapacityRPS(),
				We: 0.1, Wd: 0, OnsiteKW: 6,
			}
			res, err := Solve(prob,
				Options{Delta: 1e5, MaxIters: 600, Seed: 9, RecordHistory: true})
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(res)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("result hash = %s, want %s (RNG sequence or float arithmetic drifted)",
					got, tc.want)
			}
		})
	}
}

// TestGoldenSolverSequenceHash pins a warm-started Solver sequence — three
// slots with changing load, seed advancing per slot — so the seed-advance
// chain and warm-start handoff stay bit-for-bit too.
func TestGoldenSolverSequenceHash(t *testing.T) {
	const want = "fnv1a:b1f60cea6e778a36"
	s := &Solver{Opts: Options{Delta: 1e5, MaxIters: 400, Seed: 21}}
	var sols []dcmodel.Solution
	for _, lam := range []float64{40, 140, 80} {
		sol, err := s.Solve(smallProblem(3, lam))
		if err != nil {
			t.Fatal(err)
		}
		sols = append(sols, sol)
	}
	if got := hashSolutions(sols); got != want {
		t.Errorf("solver sequence hash = %s, want %s", got, want)
	}
}

// TestGoldenDistributedHash pins SolveDistributed's results — timer
// competition, agent-side acceptance and the dual-decomposition split —
// over a few seeds, a failed group and a mid-sized cluster. Patience is off,
// so the chain runs its whole budget and the digest is independent of the
// patience rule.
func TestGoldenDistributedHash(t *testing.T) {
	const want = "fnv1a:040cf605a62bf74d"
	d := newDigest()
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := SolveDistributed(smallProblem(4, 60),
			Options{Delta: 1e5, MaxIters: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		d.putSolve(res)
	}
	res, err := SolveDistributed(smallProblem(5, 45),
		Options{Delta: 1e4, MaxIters: 300, Seed: 6, Failed: []bool{false, true, false, false, true}})
	if err != nil {
		t.Fatal(err)
	}
	d.putSolve(res)
	hc := dcmodel.HeterogeneousCluster(240, 12)
	res, err = SolveDistributed(&dcmodel.SlotProblem{
		Cluster: hc, LambdaRPS: 0.35 * hc.MaxCapacityRPS(),
		We: 0.07, Wd: 0.02, OnsiteKW: 3,
	}, Options{Delta: 1e5, MaxIters: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d.putSolve(res)
	if got := d.sum(); got != want {
		t.Errorf("distributed result hash = %s, want %s", got, want)
	}
}
