package loadbalance

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dcmodel"
	"repro/internal/numopt"
)

// This file pins the struct-of-arrays refactor against the layout it
// replaced: a reference solver that walks the cluster's Group structs
// directly (per-call accessor arithmetic, one closure pair per group
// through numopt.WaterFillInto's per-item path — no ClusterArrays, no
// BulkWaterSystem) and runs the identical regime analysis. For randomized
// problems over heterogeneous clusters the two must produce bit-for-bit
// identical load vectors, objectives and Ledger charges.

// refGroup is one on group's constants in the old (ad hoc, per-solve)
// layout, gathered from the Group accessors at solve time.
type refGroup struct {
	idx                 int
	n, rate, slope, cap float64
}

// refSolver is the old-layout reference: plain group structs + closures.
type refSolver struct {
	p      *dcmodel.SlotProblem
	speeds []int
	groups []refGroup
	baseKW float64
	capSum float64
	regime string // set by solve: "grid", "surplus", "kink" or "no-delay"
}

func newRefSolver(p *dcmodel.SlotProblem, speeds []int) *refSolver {
	r := &refSolver{p: p, speeds: speeds}
	for g := range p.Cluster.Groups {
		grp := &p.Cluster.Groups[g]
		if speeds[g] == 0 {
			continue
		}
		rate := grp.RateAt(speeds[g])
		r.groups = append(r.groups, refGroup{
			idx:   g,
			n:     float64(grp.N),
			rate:  rate,
			slope: p.Cluster.PUE * grp.PowerSlopeKWPerRPS(speeds[g]),
			cap:   p.Cluster.Gamma * rate,
		})
	}
	for i := range r.groups {
		g := &p.Cluster.Groups[r.groups[i].idx]
		r.baseKW += p.Cluster.PUE * float64(g.N) * g.Type.StaticKW
		r.capSum += r.groups[i].cap
	}
	return r
}

// refItem is one group's cap and closure pair: its marginal cost at load v
// and its inverse, the load at which the marginal cost equals price nu,
// clamped to [0, Cap].
type refItem struct {
	Cap   float64
	Deriv func(v float64) float64
	Alloc func(nu float64) float64
}

// refItems adapts the closures to numopt.WaterSystem, which is not a
// BulkWaterSystem, so numopt.WaterFillInto takes its per-item path.
type refItems []refItem

func (w refItems) Items() int                      { return len(w) }
func (w refItems) Cap(i int) float64               { return w[i].Cap }
func (w refItems) Deriv(i int, v float64) float64  { return w[i].Deriv(v) }
func (w refItems) Alloc(i int, nu float64) float64 { return w[i].Alloc(nu) }

// items builds the closure-based items for one electricity weight — the
// pre-SoA representation, one closure pair per group per fill.
func (r *refSolver) items(omega float64) refItems {
	out := make(refItems, len(r.groups))
	wd := r.p.Wd
	for i := range out {
		g := r.groups[i]
		out[i] = refItem{
			Cap: g.cap,
			Deriv: func(v float64) float64 {
				den := g.rate - v
				if den <= 0 {
					return math.Inf(1)
				}
				return omega*g.slope + wd*g.n*g.rate/(den*den)
			},
			Alloc: func(nu float64) float64 {
				rem := nu - omega*g.slope
				if rem <= 0 {
					return 0
				}
				if wd <= 0 {
					return g.cap
				}
				l := g.rate - math.Sqrt(wd*g.n*g.rate/rem)
				return numopt.Clamp(l, 0, g.cap)
			},
		}
	}
	return out
}

func (r *refSolver) fill(omega float64) ([]float64, error) {
	if r.p.Wd <= 0 {
		// Degenerate linear case: fill caps in ascending ω·slope order,
		// the historical per-call sort.Slice of fillNoDelay.
		// sort.Slice, not a stable sort: with bit-equal slopes (same server
		// generation at the same level) the unstable permutation decides
		// which group absorbs the partial fill, and the historical solver —
		// and the orderCache reproducing it — used sort.Slice per call.
		order := make([]int, len(r.groups))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return omega*r.groups[order[a]].slope < omega*r.groups[order[b]].slope
		})
		loads := make([]float64, len(r.groups))
		remaining := r.p.LambdaRPS
		for _, i := range order {
			take := math.Min(remaining, r.groups[i].cap)
			loads[i] = take
			remaining -= take
			if remaining <= 0 {
				break
			}
		}
		return loads, nil
	}
	loads, err := numopt.WaterFillInto(r.items(omega), r.p.LambdaRPS, waterFillTol, nil)
	if err != nil {
		return nil, ErrInfeasible
	}
	return loads, nil
}

func (r *refSolver) powerOf(loads []float64) float64 {
	p := r.baseKW
	for i := range r.groups {
		p += r.groups[i].slope * loads[i]
	}
	return p
}

// solve runs the regime analysis of solveWith over the old layout.
func (r *refSolver) solve() (dcmodel.Solution, error) {
	if r.p.LambdaRPS > r.capSum*(1+1e-12) {
		return dcmodel.Solution{}, ErrInfeasible
	}
	var loads []float64
	if len(r.groups) == 0 {
		if r.p.LambdaRPS > 0 {
			return dcmodel.Solution{}, ErrInfeasible
		}
	} else {
		onsite := r.p.OnsiteKW
		grid, err := r.fill(r.p.We)
		if err != nil {
			return dcmodel.Solution{}, err
		}
		switch {
		case r.p.We == 0 || r.powerOf(grid) >= onsite-powerTol:
			loads, r.regime = grid, "grid"
		default:
			free, err := r.fill(0)
			if err != nil {
				return dcmodel.Solution{}, err
			}
			if r.powerOf(free) <= onsite+powerTol {
				loads, r.regime = free, "surplus"
			} else {
				r.regime = "kink"
				omega := numopt.BisectMonotone(func(w float64) float64 {
					l, ferr := r.fill(w)
					if ferr != nil {
						err = ferr
						return 0
					}
					return r.powerOf(l)
				}, onsite, 0, r.p.We, r.p.We*1e-12, 100)
				if err != nil {
					return dcmodel.Solution{}, err
				}
				if loads, err = r.fill(omega); err != nil {
					return dcmodel.Solution{}, err
				}
			}
		}
	}
	if r.p.Wd <= 0 {
		r.regime = "no-delay"
	}
	full := make([]float64, len(r.p.Cluster.Groups))
	for i := range r.groups {
		full[r.groups[i].idx] = loads[i]
	}
	sol := dcmodel.Solution{
		Speeds: append([]int(nil), r.speeds...),
		Load:   full,
	}
	sol.Value = r.p.Objective(sol.Speeds, sol.Load)
	return sol, nil
}

// TestSoAMatchesOldLayoutProperty is the randomized parity sweep: for
// random heterogeneous clusters, speed vectors, loads, weights and on-site
// supplies spanning all three regimes (grid, kink, surplus) plus the Wd=0
// degenerate case, the SoA Instance and the old-layout reference must agree
// bit-for-bit — on the load vector, the P3 objective and the resulting
// Ledger charge.
func TestSoAMatchesOldLayoutProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2013))
	cases := 0
	for trial := 0; trial < 120; trial++ {
		groups := 1 + rng.Intn(24)
		cluster := dcmodel.HeterogeneousCluster(groups*(2+rng.Intn(30)), groups)
		speeds := make([]int, groups)
		for g := range speeds {
			speeds[g] = rng.Intn(cluster.Groups[g].Type.NumSpeeds() + 1)
		}
		var capRPS float64
		for g := range speeds {
			capRPS += cluster.Gamma * cluster.Groups[g].RateAt(speeds[g])
		}
		wd := []float64{0, 0.02, 1.7}[rng.Intn(3)]
		we := []float64{0, 0.05, 3.1}[rng.Intn(3)]
		p := &dcmodel.SlotProblem{
			Cluster:   cluster,
			LambdaRPS: capRPS * rng.Float64(),
			We:        we,
			Wd:        wd,
			// Spans sub-grid, mid (kink) and above-everything supplies.
			OnsiteKW: []float64{0, 1, 20, 1e6}[rng.Intn(4)] * rng.Float64(),
		}

		in, err := NewInstance(p, speeds)
		if err != nil {
			if err == ErrInfeasible {
				continue // λ jitter above capacity; nothing to compare
			}
			t.Fatalf("trial %d: NewInstance: %v", trial, err)
		}
		if requireRefParity(t, fmt.Sprintf("trial %d", trial), in, p, speeds, 0.04+0.1*rng.Float64()) != "" {
			cases++
		}
	}
	if cases < 40 {
		t.Fatalf("only %d comparable cases out of 120 trials; generator drifted", cases)
	}
}

// requireRefParity solves in and the old-layout reference for the same
// problem and fails unless they agree bit for bit on the load vector, the
// P3 objective and the Ledger charge at the given price. It returns the
// reference's regime, or "" when both report an error.
func requireRefParity(t *testing.T, label string, in *Instance, p *dcmodel.SlotProblem, speeds []int, price float64) string {
	t.Helper()
	got, gotErr := in.Solve()
	ref := newRefSolver(p, speeds)
	want, wantErr := ref.solve()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: SoA err %v, reference err %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return ""
	}
	for g := range want.Load {
		if got.Load[g] != want.Load[g] {
			t.Fatalf("%s: group %d load %v (SoA) != %v (old layout)",
				label, g, got.Load[g], want.Load[g])
		}
	}
	if got.Value != want.Value {
		t.Fatalf("%s: objective %v (SoA) != %v (old layout)", label, got.Value, want.Value)
	}
	led := dcmodel.Ledger{
		PriceUSDPerKWh: price,
		OnsiteKW:       p.OnsiteKW,
		Beta:           0.02,
		Alpha:          1,
		RECPerSlotKWh:  5,
	}
	cluster := p.Cluster
	chGot := led.Charge(cluster.FacilityPowerKW(got.Speeds, got.Load),
		cluster.DelayCost(got.Speeds, got.Load), 0)
	chWant := led.Charge(cluster.FacilityPowerKW(want.Speeds, want.Load),
		cluster.DelayCost(want.Speeds, want.Load), 0)
	if chGot != chWant {
		t.Fatalf("%s: ledger charge %+v (SoA) != %+v (old layout)", label, chGot, chWant)
	}
	return ref.regime
}

// classFamily is a cluster family for the class-path tests, from few
// classes over many groups to one class per group.
type classFamily struct {
	name    string
	cluster *dcmodel.Cluster
}

func classFamilies() []classFamily {
	// All distinct: the three server generations cycle across groups and
	// every group has a different N, so every on group is its own class.
	gens := dcmodel.HeterogeneousCluster(3, 3)
	distinct := &dcmodel.Cluster{Gamma: 0.95, PUE: 1.2}
	for g := 0; g < 17; g++ {
		distinct.Groups = append(distinct.Groups,
			dcmodel.Group{Type: gens.Groups[g%3].Type, N: 4 + 3*g})
	}
	// Same rows, different N: a halved Opteron at 20 servers has the rate
	// and slope rows of 10 Opterons, so the split's constants alone do not
	// separate their classes; N (and with it (Wd·n)·R) does.
	halved := dcmodel.Opteron()
	halved.StaticKW /= 2
	for i := range halved.Levels {
		halved.Levels[i].BusyKW /= 2
		halved.Levels[i].RateRPS /= 2
	}
	sameRows := &dcmodel.Cluster{Gamma: 0.95, PUE: 1}
	for g := 0; g < 12; g++ {
		grp := dcmodel.Group{Type: dcmodel.Opteron(), N: 10}
		if g%2 == 1 {
			grp = dcmodel.Group{Type: halved, N: 20}
		}
		sameRows.Groups = append(sameRows.Groups, grp)
	}
	// Same rows and N, different static power: an Opteron whose idle power
	// is moved out of every level has bit-identical computing power, so
	// only the objective's n·p_s separates their classes.
	noStatic := dcmodel.Opteron()
	noStatic.StaticKW = 0
	for i, l := range dcmodel.Opteron().Levels {
		noStatic.Levels[i].BusyKW = l.BusyKW - dcmodel.Opteron().StaticKW
	}
	sameRowsStatic := &dcmodel.Cluster{Gamma: 0.95, PUE: 1.1}
	for g := 0; g < 12; g++ {
		grp := dcmodel.Group{Type: dcmodel.Opteron(), N: 10}
		if g%3 == 1 {
			grp.Type = noStatic
		}
		sameRowsStatic.Groups = append(sameRowsStatic.Groups, grp)
	}
	return []classFamily{
		{"paper-200", dcmodel.PaperCluster(200)},               // one shape, up to 4 classes
		{"site-390x39", dcmodel.HeterogeneousCluster(390, 39)}, // the fleet-100k site
		{"uneven-paper-7", dcmodel.PaperCluster(7)},            // 216000 = 6·30857 + 30858
		{"uneven-hetero-100x7", dcmodel.HeterogeneousCluster(100, 7)},
		{"all-distinct-17", distinct},
		{"same-rows-distinct-n", sameRows},
		{"same-rows-distinct-static", sameRowsStatic},
	}
}

// TestClassPathMatchesOldLayoutProperty extends the randomized parity sweep
// to the clusters where class-level evaluation matters: many groups per
// class (the paper's 200 groups, the fleet-100k site), an uneven last group
// (a shape of its own) and all-distinct groups (one class per group). Each
// family must agree bit for bit with the per-group reference in every
// regime: grid, kink, surplus and Wd = 0.
func TestClassPathMatchesOldLayoutProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	regimes := []string{"grid", "kink", "surplus", "no-delay"}
	for _, fam := range classFamilies() {
		t.Run(fam.name, func(t *testing.T) {
			c := fam.cluster
			seen := map[string]int{}
			for trial := 0; trial < 60; trial++ {
				speeds := make([]int, len(c.Groups))
				var capRPS float64
				for g := range speeds {
					speeds[g] = rng.Intn(c.Groups[g].Type.NumSpeeds() + 1)
					capRPS += c.Gamma * c.Groups[g].RateAt(speeds[g])
				}
				want := regimes[trial%len(regimes)]
				p := &dcmodel.SlotProblem{
					Cluster:   c,
					LambdaRPS: capRPS * (0.05 + 0.9*rng.Float64()),
					We:        []float64{0.05, 3.1}[rng.Intn(2)],
					Wd:        []float64{0.02, 1.7}[rng.Intn(2)],
				}
				switch want {
				case "no-delay":
					p.Wd = 0
				case "surplus":
					p.OnsiteKW = 1e12
				case "kink":
					// Midway between the surplus and grid fills' power.
					ref := newRefSolver(p, speeds)
					grid, gerr := ref.fill(p.We)
					free, ferr := ref.fill(0)
					if gerr == nil && ferr == nil {
						p.OnsiteKW = (ref.powerOf(grid) + ref.powerOf(free)) / 2
					}
				}
				in, err := NewInstance(p, speeds)
				if err != nil {
					if err == ErrInfeasible {
						continue
					}
					t.Fatalf("trial %d: NewInstance: %v", trial, err)
				}
				got := requireRefParity(t, fmt.Sprintf("trial %d (%s)", trial, want), in, p, speeds, 0.04+0.1*rng.Float64())
				seen[got]++
			}
			for _, r := range regimes {
				if seen[r] < 5 {
					t.Fatalf("regime %s reached %d times (seen %v); generator drifted", r, seen[r], seen)
				}
			}
		})
	}
}
