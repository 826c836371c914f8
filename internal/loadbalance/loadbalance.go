// Package loadbalance solves the optimal load-distribution subproblem of
// COCA: given a fixed speed vector (GSD Algorithm 2 line 3, Eq. (18)),
// distribute the total arrival rate λ(t) across server groups to minimize
//
//	We·[p(λ,x) − r]^+ + Wd·d(λ,x)
//	s.t. Σ_g L_g = λ,  0 ≤ L_g ≤ γ·n_g·x_g,
//
// where group power is affine in load and the M/G/1/PS delay cost is convex.
// The [·]^+ kink makes the objective piecewise convex; we solve it by regime
// analysis — water-fill with the full electricity weight (grid regime), with
// zero weight (renewable-surplus regime), and, when the two disagree, bisect
// the effective weight to pin total power exactly at the on-site supply r(t)
// (the kink).
//
// The split runs either centralized (Solve, Instance.SolveInto: one
// coordinator water-fills over the class table) or as the dual-decomposition
// price protocol the paper points to via refs [5] and [27]
// (Instance.SolveDistributedInto: every server group answers price
// broadcasts from its own parameters). Both take the same decisions, so they
// return the same bits.
//
// An Instance is mutable: SetSpeed applies a single-group speed change and
// Revert undoes it, so an iterative caller (the GSD engine proposes one
// coordinate change per Gibbs iteration) keeps one persistent Instance and
// pays a delta update plus an allocation-free split per proposal instead
// of rebuilding the subproblem 200·n times per slot. Split returns only the
// split's value and WriteSplit copies its loads out, so a caller that keeps
// few proposals copies few.
//
// The on groups are two parallel slices in ascending cluster order: gIdx,
// each group's cluster index, and gRow, its class's row in the class table.
// Every other per-group constant is a class constant read through gRow, so
// an on↔off move shifts two slices and a speed change rewrites one entry.
//
// On groups with the same shape (dcmodel.ClusterArrays.Shape) at the same
// speed form one class and get the same allocation at every price, so each
// price probe of the water-fill evaluates the allocation once per live class
// and weighs it by the class's group count. That estimate of the ascending
// per-group sum comes with a rounding-error bound (numopt.ClassSumSlack)
// that decides almost every bisection comparison; only an undecided probe
// accumulates the per-group values in ascending order. The three tracked
// sums (static power, γ-capacity and capacity) are estimated and certified
// the same way, and taken as ascending sums only for a comparison the
// estimate leaves open. Every comparison is decided as the exact sum
// decides it, hence the same bits. The class table is kept by delta:
// SetSpeed moves one group between two classes' counts and Revert moves it
// back, so a proposal costs what it changes. Each fill also starts its
// price search from the price the last fill at the same electricity weight
// found, which is advisory and changes no bit either.
package loadbalance

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/dcmodel"
	"repro/internal/numopt"
)

// ErrInfeasible is returned when λ exceeds the γ-discounted capacity of the
// given speed configuration.
var ErrInfeasible = errors.New("loadbalance: load exceeds configuration capacity")

// classOf returns the class-table row of cluster group g at speed k > 0 and
// counts the group in it. A class the table has not met since Reset gets a
// new row, computed with exactly the arithmetic NewInstance has always used
// (the arrays store RateAt/PowerSlopeKWPerRPS values verbatim).
func (in *Instance) classOf(g, k int) int32 {
	id := in.arr.Shape[g]*int32(in.arr.Stride) + int32(k)
	row := in.cls.slot[id]
	if row < 0 {
		p := in.prob
		typ := &p.Cluster.Groups[g].Type
		n, rate := in.arr.N[g], in.arr.Rate(g, k)
		row = int32(len(in.cls.rows))
		in.cls.slot[id] = row
		in.cls.rows = append(in.cls.rows, classRow{
			id:       id,
			rate:     rate,
			cap:      p.Cluster.Gamma * rate,
			slope:    p.Cluster.PUE * in.arr.Slope(g, k),
			wdnr:     p.Wd * n * rate,
			static:   p.Cluster.PUE * n * in.arr.StaticKW[g],
			n:        n,
			staticKW: in.arr.StaticKW[g],
			compKW:   typ.ComputingKW(k),
			x:        typ.Rate(k),
		})
	}
	in.cls.inc(row)
	return row
}

// undoKind describes the structural effect of the last SetSpeed.
type undoKind int

const (
	undoNone   undoKind = iota // speed unchanged, nothing to restore
	undoModify                 // on→on: one entry rewritten in place
	undoRemove                 // on→off: one entry removed
	undoInsert                 // off→on: one entry inserted
)

// undoRecord snapshots what a single SetSpeed changed so Revert can restore
// the instance bit-for-bit, the tracked sums' estimates and exact values
// included.
type undoRecord struct {
	valid bool
	kind  undoKind
	g     int   // cluster group the mutation touched
	oldK  int   // its previous speed index
	pos   int   // position in the on-group slices the mutation touched
	row   int32 // the displaced entry's class row (modify/remove)
	rows  int   // class-table rows before the mutation, which may append one
	sums  trackedSums
}

// classRow is one (shape, speed) class the instance has met since its last
// Reset: the constants every member group shares, computed once with the
// per-group arithmetic and association of alloc, marginal and the
// objective, plus the class's water-fill scratch.
type classRow struct {
	id    int32   // class id: Shape·Stride + k
	cnt   float64 // number of on groups in the class (exact), 0 once it empties
	live  int32   // its position in classTable.live while cnt > 0
	rate  float64 // R
	cap   float64 // γ·R
	slope float64 // PUE·p_c(x)/x
	wdnr  float64 // (Wd·n)·R
	// static is PUE·n·p_s: a member's share of the tracked static power.
	static float64

	// The objective's per-group terms: Group.PowerKW = n·p_s + p_c·L/x and
	// Group.DelayCost = n·L/(R − L).
	n, staticKW, compKW, x float64

	oslope float64 // ω·slope, set once per fill
	val    float64 // the allocation at the current price probe

	// objective's memo: a member group's power and delay terms at load memoL.
	memoL, memoP, memoD float64
}

// The three tracked sums over the on groups, each the ascending sum of a
// class constant (classRow's static, cap and rate): the facility's static
// power, the γ-capacity NewInstance checks λ against, and the capacity
// before the γ factor (Cluster.UsableCapacityRPS's sum).
const (
	sumStatic = iota
	sumCap
	sumRate
	numSums
)

// trackedSums is what the instance knows of the tracked sums at its current
// speeds. SetSpeed forgets both views and Revert restores its snapshot, so
// a proposal pays neither unless a reader needs it: the class table's
// estimates Σ cnt·value with their numopt.ClassSumSlack (one O(classes)
// sweep for all three), or the ascending sums (one O(groups) pass for all
// three), which a reader takes only for a comparison the estimate leaves
// open. The ascending sums are accumulated in a from-scratch NewInstance's
// order (off groups add exact zeros there), so they are never updated by
// +=delta: floating-point addition is order-sensitive, and delta drift in
// the last ulps would break the bit-for-bit parity with a fresh build.
type trackedSums struct {
	est, slack [numSums]float64 // the class estimates, when estOK
	exact      [numSums]float64 // the ascending sums, when exactOK
	estOK      bool
	exactOK    bool
}

// classTable is the class table, kept by delta between Resets. A class's
// row, once appended, keeps its index (slot) until Reset, and a SetSpeed
// only moves one group's count between two rows; a Revert moves it back and
// pops the row its SetSpeed appended. The groups of one class have
// bit-identical n, R and slope, so any member's constants are the row's,
// and the on groups find their rows through Instance.gRow.
//
// Rows whose count falls to zero stay, so the rows are in no useful order;
// live lists the rows with members, and every sweep walks live alone. Three
// rules keep the fills bit-identical to a fresh build's: an empty row never
// reaches ZeroDerivRange, whose extremes set the bracket and so every bit;
// a zero-slack estimate is the ascending per-group gather, never a row-order
// sum; and any other estimate, whose bits may differ from a fresh build's,
// is covered by its slack and so moves only probe counts.
type classTable struct {
	rows []classRow
	live []int32 // the rows with cnt > 0, in no particular order
	slot []int32 // per class id: its row, -1 until the class first appears
}

// inc adds one group to row r, listing the row as live if it was empty.
func (t *classTable) inc(r int32) {
	c := &t.rows[r]
	if c.cnt == 0 {
		c.live = int32(len(t.live))
		t.live = append(t.live, r)
	}
	c.cnt++
}

// dec removes one group from row r, delisting the row once it is empty.
func (t *classTable) dec(r int32) {
	c := &t.rows[r]
	c.cnt--
	if c.cnt == 0 {
		last := t.live[len(t.live)-1]
		t.live[c.live] = last
		t.rows[last].live = c.live
		t.live = t.live[:len(t.live)-1]
	}
}

// truncate pops the rows past the first n, all empty, forgetting their
// classes.
func (t *classTable) truncate(n int) {
	for _, c := range t.rows[n:] {
		t.slot[c.id] = -1
	}
	t.rows = t.rows[:n]
}

// fillSystem adapts an Instance to numopt.WaterSystem for one electricity
// weight ω without allocating: the instance owns a single fillSystem and
// rewrites it per fill, and the pointer passed as the interface is the
// already-heap-resident field, so no per-fill boxing occurs. It also
// implements numopt.BulkWaterSystem over the live classes: every probe
// evaluates the allocation once per class and weighs it by the class's
// group count for the certified estimate; only an exact sum gathers it per
// on group.
type fillSystem struct {
	in    *Instance
	omega float64
	// hint is the price the last fill at ω = We (hint[0]) and at ω = 0
	// (hint[1]) located, NaN before the first: the PriceHint of the next
	// fill at that weight, whose speeds differ from it in a group or two.
	hint [2]float64
	// nu is the price the current fill allocated at, NaN until it has one
	// (a fill that needs no price search never does).
	nu float64
}

// prepare sets the live classes up for one fill under electricity weight
// omega.
func (s *fillSystem) prepare(omega float64) {
	s.omega, s.nu = omega, math.NaN()
	t := &s.in.cls
	for _, r := range t.live {
		t.rows[r].oslope = omega * t.rows[r].slope
	}
}

// hintSlot returns the index of omega's hint, or -1 for a weight that keeps
// none (the kink bisection's).
func (s *fillSystem) hintSlot() int {
	switch s.omega {
	case s.in.prob.We:
		return 0
	case 0:
		return 1
	}
	return -1
}

// PriceHint implements numopt.BulkWaterSystem: the price the last fill at
// this electricity weight found.
func (s *fillSystem) PriceHint() float64 {
	if i := s.hintSlot(); i >= 0 {
		return s.hint[i]
	}
	return math.NaN()
}

func (s *fillSystem) Items() int        { return len(s.in.gIdx) }
func (s *fillSystem) Cap(i int) float64 { return s.in.row(i).cap }
func (s *fillSystem) Deriv(i int, v float64) float64 {
	return s.in.marginal(i, s.omega, v)
}
func (s *fillSystem) Alloc(i int, nu float64) float64 {
	return s.in.alloc(i, s.omega, nu)
}

// classAlloc sets every live row's val to its allocation at price nu —
// alloc's arithmetic with the row's constants — and returns Σ_r cnt_r·val_r
// in live order.
func (s *fillSystem) classAlloc(nu float64) float64 {
	wd, rows := s.in.prob.Wd, s.in.cls.rows
	var est float64
	for _, r := range s.in.cls.live {
		c := &rows[r]
		rem := nu - c.oslope
		switch {
		case rem <= 0:
			c.val = 0
		case wd <= 0:
			c.val = c.cap
		default:
			c.val = numopt.Clamp(c.rate-math.Sqrt(c.wdnr/rem), 0, c.cap)
		}
		est += c.cnt * c.val
	}
	return est
}

// SumAllocBound implements numopt.BulkWaterSystem: the class-weighted sum
// and its numopt.ClassSumSlack. When every live class has one member the
// class sweep costs what the ascending per-group gather does, so the
// estimate is that gather, the exact sum, with slack 0.
func (s *fillSystem) SumAllocBound(nu float64) (est, slack float64) {
	s.in.work.ClassSweeps++
	est = s.classAlloc(nu)
	n, classes := len(s.in.gRow), len(s.in.cls.live)
	if classes == n {
		return s.gather(), 0
	}
	return est, numopt.ClassSumSlack(est, n, classes)
}

// SumAllocSlope implements numopt.BulkWaterSystem: the class-weighted sum
// of classAlloc's values and its derivative in nu. A row strictly inside
// (0, cap) has v = R − q with q = √(wdnr/rem), whose derivative is
// ½·q/rem; a row at 0 or at cap contributes no slope. It writes no row
// state, so it may run between any two probes.
func (s *fillSystem) SumAllocSlope(nu float64) (est, slope float64) {
	s.in.work.ClassSweeps++
	wd, rows := s.in.prob.Wd, s.in.cls.rows
	for _, r := range s.in.cls.live {
		c := &rows[r]
		rem := nu - c.oslope
		switch {
		case rem <= 0:
		case wd <= 0:
			est += c.cnt * c.cap
		default:
			q := math.Sqrt(c.wdnr / rem)
			switch v := c.rate - q; {
			case v <= 0:
			case v >= c.cap:
				est += c.cnt * c.cap
			default:
				est += c.cnt * v
				slope += c.cnt * 0.5 * q / rem
			}
		}
	}
	return est, slope
}

// CapSum implements numopt.BulkWaterSystem: the tracked Σ γ·R, the same
// ascending sum over the on groups.
func (s *fillSystem) CapSum() float64 { return s.in.exactSum(sumCap) }

// CapSumBound implements numopt.BulkWaterSystem: the tracked Σ γ·R within
// its certified slack.
func (s *fillSystem) CapSumBound() (est, slack float64) { return s.in.bound(sumCap) }

// SumAlloc implements numopt.BulkWaterSystem: Σ_i Alloc(i, ν) accumulated in
// ascending index order — the per-group values and the order of the
// additions of the generic per-item loop.
func (s *fillSystem) SumAlloc(nu float64) float64 {
	s.classAlloc(nu)
	return s.gather()
}

// gather returns the ascending sum over the on groups of their rows' val.
func (s *fillSystem) gather() float64 {
	s.in.work.Gathers++
	rows := s.in.cls.rows
	var sum float64
	for _, r := range s.in.gRow {
		sum += rows[r].val
	}
	return sum
}

// AllocInto implements numopt.BulkWaterSystem: writes Alloc(i, ν) into out
// and returns the ascending-order sum of the written values. A fill at
// ω = We or ω = 0 calls it once, at the price it located, which it keeps as
// that weight's hint.
func (s *fillSystem) AllocInto(out []float64, nu float64) float64 {
	if i := s.hintSlot(); i >= 0 {
		s.hint[i] = nu
	}
	s.nu = nu
	s.classAlloc(nu)
	rows := s.in.cls.rows
	var sum float64
	for i, r := range s.in.gRow[:len(out)] {
		out[i] = rows[r].val
		sum += out[i]
	}
	return sum
}

// ZeroDerivRange implements numopt.BulkWaterSystem: the minimum and maximum
// of Deriv(i, 0) over the on groups, taken over the live rows (a class's
// members share one value, so the extremes are the same).
func (s *fillSystem) ZeroDerivRange() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	rows := s.in.cls.rows
	for _, r := range s.in.cls.live {
		c := &rows[r]
		d0 := math.Inf(1)
		if c.rate > 0 {
			d0 = c.oslope + c.wdnr/(c.rate*c.rate)
		}
		if d0 < lo {
			lo = d0
		}
		if d0 > hi {
			hi = d0
		}
	}
	return lo, hi
}

// orderCache memoizes the fillNoDelay group ordering. The sort key is
// ω·slope, and ω only enters as a non-negative scale factor: for every ω > 0
// the comparisons reduce to the slopes themselves, and for ω = 0 every key
// collapses to zero and the (deliberately unstable) sort.Slice outcome is a
// fixed permutation of the identity. So one order per sign class, recomputed
// only when the speed configuration changes, reproduces the per-call sorts
// bit-for-bit whenever slopes are exactly equal or well separated — which
// holds for every cluster in this repository (homogeneous groups share one
// slope; heterogeneous generations differ by ≫ 1 ulp).
type orderCache struct {
	valid bool
	pos   []int // order for ω > 0 (ascending slope)
	zero  []int // order for ω = 0 (all keys equal)
}

func (c *orderCache) get(in *Instance, omega float64) []int {
	if !c.valid {
		c.pos = sortedOrder(c.pos, in, 1)
		c.zero = sortedOrder(c.zero, in, 0)
		c.valid = true
	}
	if omega == 0 {
		return c.zero
	}
	return c.pos
}

// sortedOrder reproduces fillNoDelay's historical per-call sort for a
// representative omega of the sign class.
func sortedOrder(buf []int, in *Instance, omega float64) []int {
	n := len(in.gIdx)
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = i
	}
	sort.Slice(buf, func(a, b int) bool {
		return omega*in.row(buf[a]).slope < omega*in.row(buf[b]).slope
	})
	return buf
}

// solveScratch holds the reusable buffers of the regime analysis: the grid
// and surplus fills plus two rotating buffers for the ω-bisection, whose
// last two evaluations double as a memo so the final fill can be reused
// instead of recomputed when the bisection already evaluated the returned ω.
type solveScratch struct {
	grid []float64
	free []float64
	bis  [2][]float64
}

// Instance is a prepared subproblem for one (problem, speeds) pair. Prepare
// once, then Solve; preparation separates validation from the hot path so
// GSD can re-solve thousands of proposals cheaply. SetSpeed/Revert/Commit
// mutate the prepared state by delta, class table included, and SolveInto
// reuses both the caller's Solution buffers and the instance's internal
// scratch, so the steady-state proposal loop performs no heap allocation.
// (Only a cluster with more possible classes than groups can grow the
// class table, once for each class it first meets after Reset.)
type Instance struct {
	prob   *dcmodel.SlotProblem
	arr    *dcmodel.ClusterArrays
	speeds []int // owned copy of the current speed vector

	// The on groups, ascending cluster index: position i is cluster group
	// gIdx[i], whose constants are its class's row cls.rows[gRow[i]].
	gIdx []int
	gRow []int32

	sums trackedSums // what the readers at the current speeds took

	// The class table, built by Reset and kept by delta after it. Reset
	// sizes it for the most classes the cluster can have live at once,
	// min(groups, Shapes·K); only a class first met after Reset may grow
	// the rows.
	cls classTable

	// The dual of the last split: the price its returned fill allocated at
	// and that fill's electricity weight over We, NaN when it had none.
	dualNu, dualMu float64

	last    lastSplit
	work    Work
	undo    undoRecord
	sys     fillSystem
	proto   priceProtocol
	order   orderCache
	scratch solveScratch
}

// lastSplit is the instance's last split while its speeds stand: the
// instance-group loads (aliasing solveScratch) and their objective value.
type lastSplit struct {
	ok    bool
	loads []float64
	value float64
}

// Work counts an instance's passes since its last Reset, as plain
// increments: the fills its splits ran, their O(classes) and O(groups)
// price probes, and the O(groups) passes the tracked sums' certificates
// left to the ascending sums.
type Work struct {
	Fills       int // water-fills, one per electricity weight a split tries
	ClassSweeps int // O(classes) price probes: certified bounds and slope sweeps
	Gathers     int // O(groups) price probes: exact per-group sums
	SumPasses   int // O(groups) passes over the tracked sums a certificate left open
}

// Work returns the passes counted since the last Reset.
func (in *Instance) Work() Work { return in.work }

// NewInstance validates and prepares the subproblem. It returns
// ErrInfeasible when the speed vector cannot carry the problem's λ.
// The speed vector is copied; mutate the instance through SetSpeed.
func NewInstance(p *dcmodel.SlotProblem, speeds []int) (*Instance, error) {
	in := &Instance{}
	if err := in.Reset(p, speeds); err != nil {
		return nil, err
	}
	return in, nil
}

// Reset re-prepares the instance for a new (problem, speeds) pair, reusing
// every internal buffer. The resulting state is bit-for-bit identical to a
// fresh NewInstance build: the on-group slices and the class table are
// rebuilt in the same ascending order with the same arithmetic, the tracked
// sums and the price hints are cleared, and the Work counts start at zero.
// A problem whose scalars fail dcmodel.SlotProblem.CheckScalars (a NaN or
// infinite λ, weight or on-site supply, or a negative one) is an error. On
// error the instance is left invalid; it must be Reset successfully before
// further use.
func (in *Instance) Reset(p *dcmodel.SlotProblem, speeds []int) error {
	if err := p.CheckScalars(); err != nil {
		return err
	}
	if len(speeds) != len(p.Cluster.Groups) {
		return fmt.Errorf("loadbalance: %d speeds for %d groups",
			len(speeds), len(p.Cluster.Groups))
	}
	n := len(p.Cluster.Groups)
	in.prob = p
	in.arr = p.Cluster.Arrays()
	in.speeds = append(in.speeds[:0], speeds...)
	if cap(in.gIdx) < n {
		in.gIdx = make([]int, 0, n)
		in.gRow = make([]int32, 0, n)
	}
	in.gIdx, in.gRow = in.gIdx[:0], in.gRow[:0]
	t := &in.cls
	t.slot = growInt32(t.slot, in.arr.Shapes*in.arr.Stride)
	for i := range t.slot {
		t.slot[i] = -1
	}
	maxCls := min(n, in.arr.Shapes*(in.arr.Stride-1))
	if cap(t.rows) < maxCls {
		t.rows = make([]classRow, 0, maxCls)
		t.live = make([]int32, 0, maxCls)
	}
	t.rows, t.live = t.rows[:0], t.live[:0]
	in.sys.in = in
	in.sys.hint = [2]float64{math.NaN(), math.NaN()}
	in.undo.valid = false
	in.forget()
	in.work = Work{}
	for g, k := range speeds {
		if k < 0 || k > in.arr.NumSpeeds[g] {
			return fmt.Errorf("loadbalance: group %d speed index %d out of range", g, k)
		}
		if k > 0 {
			in.gIdx = append(in.gIdx, g)
			in.gRow = append(in.gRow, in.classOf(g, k))
		}
	}
	in.dualNu, in.dualMu = math.NaN(), math.NaN()
	if !in.Fits() {
		return ErrInfeasible
	}
	return nil
}

// growInt32 returns buf resliced to length n, reallocated when too short.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// row returns on group i's class row.
func (in *Instance) row(i int) *classRow { return &in.cls.rows[in.gRow[i]] }

// forget drops everything derived from the speeds: the tracked sums, the
// cached fill orders and the last split.
func (in *Instance) forget() {
	in.sums.estOK, in.sums.exactOK = false, false
	in.order.valid = false
	in.last.ok = false
}

// bound returns tracked sum s (sumStatic, sumCap or sumRate) within slack:
// the ascending sum with slack 0 once a reader has taken it at the current
// speeds, else the class table's estimate. When every live class has one
// member the estimate would cost what the ascending sum does, so the
// ascending sum is taken instead.
func (in *Instance) bound(s int) (est, slack float64) {
	t := &in.sums
	if !t.exactOK && !t.estOK {
		n, classes := len(in.gRow), len(in.cls.live)
		if classes == n {
			return in.exactSum(s), 0
		}
		var e [numSums]float64
		for _, r := range in.cls.live {
			c := &in.cls.rows[r]
			e[sumStatic] += c.cnt * c.static
			e[sumCap] += c.cnt * c.cap
			e[sumRate] += c.cnt * c.rate
		}
		for i, v := range e {
			t.slack[i] = numopt.ClassSumSlack(v, n, classes)
		}
		t.est, t.estOK = e, true
	}
	if t.exactOK {
		return t.exact[s], 0
	}
	return t.est[s], t.slack[s]
}

// exactSum returns tracked sum s as the ascending sum over the on groups,
// taking the O(groups) pass for all three sums the first time the current
// speeds need one.
func (in *Instance) exactSum(s int) float64 {
	t := &in.sums
	if !t.exactOK {
		in.work.SumPasses++
		var e [numSums]float64
		rows := in.cls.rows
		for _, r := range in.gRow {
			c := &rows[r]
			e[sumStatic] += c.static
			e[sumCap] += c.cap
			e[sumRate] += c.rate
		}
		t.exact, t.exactOK = e, true
	}
	return t.exact[s]
}

// carries reports whether λ ≤ S·scale·(1+1e-12) for tracked sum S, as the
// ascending sum decides it. The right side is monotone in S, so it lies
// between its values at the ends of S's certified interval: when λ falls
// on one side of both the estimate decides, and otherwise (NaN included)
// the ascending sum does.
func (in *Instance) carries(s int, scale float64) bool {
	lambda := in.prob.LambdaRPS
	est, slack := in.bound(s)
	lo, hi := (est-slack)*scale*(1+1e-12), (est+slack)*scale*(1+1e-12)
	switch {
	case lambda <= min(lo, hi):
		return true
	case lambda > max(lo, hi):
		return false
	}
	return lambda <= in.exactSum(s)*scale*(1+1e-12)
}

// Speeds returns the instance's current speed vector. The slice is the
// instance's own state: treat it as read-only.
func (in *Instance) Speeds() []int { return in.speeds }

// Feasible reports whether the current speed configuration can carry the
// problem's load under the γ cap: SlotProblem.Feasible on the instance's
// speeds, bit for bit, since the capacity sum is taken in
// UsableCapacityRPS's accumulation order whenever its estimate cannot
// decide the comparison.
func (in *Instance) Feasible() bool {
	return in.carries(sumRate, in.prob.Cluster.Gamma)
}

// Fits reports whether λ fits under the tracked γ-capacity sum: the check
// Reset and every split make before water-filling. A split of an instance
// that fits cannot fail, except SolveDistributedInto's without a delay
// weight.
func (in *Instance) Fits() bool { return in.carries(sumCap, 1) }

// SetSpeed retargets cluster group g to speed index k, updating the prepared
// subproblem in place, and snapshots the previous state so Revert can undo
// it. On groups stay ordered by cluster index, exactly as NewInstance builds
// them, and the class table moves g's count from its old class's row to its
// new one's. A no-op change (k equal to the current speed) still records an
// (empty) undo snapshot.
func (in *Instance) SetSpeed(g, k int) error {
	if g < 0 || g >= len(in.speeds) {
		return fmt.Errorf("loadbalance: group %d out of range", g)
	}
	if k < 0 || k > in.arr.NumSpeeds[g] {
		return fmt.Errorf("loadbalance: group %d speed index %d out of range", g, k)
	}
	old := in.speeds[g]
	in.undo = undoRecord{valid: true, kind: undoNone, g: g, oldK: old, rows: len(in.cls.rows), sums: in.sums}
	if k == old {
		return nil
	}
	in.speeds[g] = k
	in.forget()
	p := in.insertPos(g)
	in.undo.pos = p
	switch {
	case old > 0 && k > 0:
		in.undo.kind, in.undo.row = undoModify, in.gRow[p]
		in.cls.dec(in.gRow[p])
		in.gRow[p] = in.classOf(g, k)
	case old > 0: // k == 0: drop the entry
		in.undo.kind, in.undo.row = undoRemove, in.gRow[p]
		in.cls.dec(in.gRow[p])
		in.gIdx = slices.Delete(in.gIdx, p, p+1)
		in.gRow = slices.Delete(in.gRow, p, p+1)
	default: // old == 0, k > 0: insert in cluster-index order
		in.undo.kind = undoInsert
		in.gIdx = slices.Insert(in.gIdx, p, g)
		in.gRow = slices.Insert(in.gRow, p, in.classOf(g, k))
	}
	return nil
}

// Revert undoes the most recent SetSpeed since the last Revert or Commit,
// restoring the instance bit-for-bit (the tracked sums come back from the
// snapshot; the class counts move back and a row the SetSpeed appended is
// popped). It is a no-op when nothing is pending.
func (in *Instance) Revert() {
	if !in.undo.valid {
		return
	}
	u := in.undo
	in.undo.valid = false
	if u.kind == undoNone {
		return // sums and slices untouched; order cache still valid
	}
	in.speeds[u.g] = u.oldK
	switch u.kind {
	case undoModify:
		in.cls.dec(in.gRow[u.pos])
		in.cls.inc(u.row)
		in.gRow[u.pos] = u.row
	case undoRemove:
		in.cls.inc(u.row)
		in.gIdx = slices.Insert(in.gIdx, u.pos, u.g)
		in.gRow = slices.Insert(in.gRow, u.pos, u.row)
	case undoInsert:
		in.cls.dec(in.gRow[u.pos])
		in.gIdx = slices.Delete(in.gIdx, u.pos, u.pos+1)
		in.gRow = slices.Delete(in.gRow, u.pos, u.pos+1)
	}
	in.cls.truncate(u.rows)
	in.forget()
	in.sums = u.sums
}

// Commit accepts the most recent SetSpeed, discarding its undo snapshot.
func (in *Instance) Commit() { in.undo.valid = false }

// insertPos returns the position in the on-group slices where cluster group
// g is, or belongs when it is off (on groups are kept sorted by cluster
// index).
func (in *Instance) insertPos(g int) int {
	lo, hi := 0, len(in.gIdx)
	for lo < hi {
		mid := (lo + hi) / 2
		if in.gIdx[mid] < g {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// marginal returns d(cost)/dL for on group i (slice position) at load v
// under electricity weight omega.
func (in *Instance) marginal(i int, omega, v float64) float64 {
	c := in.row(i)
	den := c.rate - v
	if den <= 0 {
		return math.Inf(1)
	}
	return omega*c.slope + c.wdnr/(den*den)
}

// alloc returns the load at which on group i's marginal cost equals price nu
// under electricity weight omega, clamped to [0, cap].
func (in *Instance) alloc(i int, omega, nu float64) float64 {
	c := in.row(i)
	rem := nu - omega*c.slope
	if rem <= 0 {
		return 0
	}
	if in.prob.Wd <= 0 {
		// Pure electricity cost: bang-bang (handled by fillNoDelay; this
		// path keeps alloc total so water-filling code stays generic).
		return c.cap
	}
	// Wd·n·R/(R−L)² = rem  →  L = R − sqrt(Wd·n·R/rem).
	l := c.rate - math.Sqrt(c.wdnr/rem)
	return numopt.Clamp(l, 0, c.cap)
}

// filler computes one water-filling for a fixed electricity weight, writing
// per-instance-group loads into dst (implementations may return a different
// slice when dst is short). The centralized Instance and the price protocol
// both implement it, so solveWith runs the identical regime analysis over
// either.
type filler interface {
	fillInto(dst []float64, omega float64) ([]float64, error)
}

// fillInto water-fills the total load across groups under electricity weight
// omega, writing per-instance-group loads into dst.
func (in *Instance) fillInto(dst []float64, omega float64) ([]float64, error) {
	if in.prob.Wd <= 0 {
		in.work.Fills++
		in.sys.nu = math.NaN() // bang-bang: no price search
		return in.fillNoDelayInto(dst, omega), nil
	}
	return in.waterFill(&in.sys, dst, omega)
}

// waterFill water-fills λ under electricity weight omega through sys: the
// instance's fillSystem, or the price protocol over it.
func (in *Instance) waterFill(sys numopt.WaterSystem, dst []float64, omega float64) ([]float64, error) {
	in.work.Fills++
	in.sys.prepare(omega)
	out, err := numopt.WaterFillInto(sys, in.prob.LambdaRPS, waterFillTol, dst)
	if err != nil {
		return nil, ErrInfeasible
	}
	return out, nil
}

// fill is the allocating form of fillInto, kept for white-box tests and
// one-shot callers.
func (in *Instance) fill(omega float64) ([]float64, error) {
	return in.fillInto(nil, omega)
}

// fillNoDelayInto handles the degenerate Wd = 0 case (no delay weight): the
// cost is linear in each load, so fill groups to their caps in ascending
// order of electricity slope. The order is cached per speed configuration
// (see orderCache) instead of re-sorted on every call.
func (in *Instance) fillNoDelayInto(dst []float64, omega float64) []float64 {
	order := in.order.get(in, omega)
	if cap(dst) < len(in.gIdx) {
		dst = make([]float64, len(in.gIdx))
	}
	dst = dst[:len(in.gIdx)]
	for i := range dst {
		dst[i] = 0
	}
	remaining := in.prob.LambdaRPS
	for _, i := range order {
		take := math.Min(remaining, in.row(i).cap)
		dst[i] = take
		remaining -= take
		if remaining <= 0 {
			break
		}
	}
	return dst
}

const waterFillTol = 1e-7

// powerOf returns the facility power of an instance-group load vector.
func (in *Instance) powerOf(loads []float64) float64 {
	p, rows := in.exactSum(sumStatic), in.cls.rows
	for i, r := range in.gRow {
		p += rows[r].slope * loads[i]
	}
	return p
}

// staticAtLeast reports that powerOf is at least t for any non-negative
// loads, from the static power alone: powerOf adds non-negative terms to
// the tracked static sum, which is at least its certified lower end. A
// false answer decides nothing.
func (in *Instance) staticAtLeast(t float64) bool {
	est, slack := in.bound(sumStatic)
	return est-slack >= t
}

// expandInto scatters instance-group loads back to full cluster-group
// indexing, writing into dst.
func (in *Instance) expandInto(dst []float64, loads []float64) []float64 {
	n := len(in.prob.Cluster.Groups)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = 0
	}
	for i := range in.gIdx {
		dst[in.gIdx[i]] = loads[i]
	}
	return dst
}

// Solve computes the optimal load distribution for the instance using the
// centralized KKT water-filling solver with regime analysis on the [·]^+
// kink. It allocates a fresh Solution; hot loops use SolveInto.
func (in *Instance) Solve() (dcmodel.Solution, error) {
	var sol dcmodel.Solution
	if err := in.SolveInto(&sol); err != nil {
		return dcmodel.Solution{}, err
	}
	return sol, nil
}

// SolveInto is Solve writing into dst, reusing dst's Speeds/Load backing
// arrays and the instance's internal scratch. After SetSpeed mutations it
// re-checks capacity (the validation NewInstance performs on construction)
// so an infeasible configuration surfaces as ErrInfeasible exactly as a
// fresh build would.
func (in *Instance) SolveInto(dst *dcmodel.Solution) error {
	if _, err := in.Split(); err != nil {
		return err
	}
	in.WriteSplit(dst)
	return nil
}

// Split is SolveInto without the copy out: it splits the current speeds
// and returns the split's value, keeping the loads in the instance's
// scratch until the next split or until the speeds change. WriteSplit
// copies them out, so a caller that keeps few splits copies few.
func (in *Instance) Split() (float64, error) { return in.splitWith(in) }

// splitWith is Split over filler f.
func (in *Instance) splitWith(f filler) (float64, error) {
	in.last.ok = false
	if !in.Fits() {
		return 0, ErrInfeasible
	}
	loads, err := in.solveWith(f)
	if err != nil {
		return 0, err
	}
	in.last = lastSplit{ok: true, loads: loads, value: in.objective(loads)}
	return in.last.value, nil
}

// WriteSplit writes the last split into dst as SolveInto would: the speeds,
// the loads by cluster group and the value, reusing dst's backing arrays.
// It panics unless a split succeeded since the speeds last changed.
func (in *Instance) WriteSplit(dst *dcmodel.Solution) {
	if !in.last.ok {
		panic("loadbalance: WriteSplit without a split of the current speeds")
	}
	dst.Speeds = append(dst.Speeds[:0], in.speeds...)
	dst.Load = in.expandInto(dst.Load, in.last.loads)
	dst.Value = in.last.value
}

// objective is SlotProblem.Objective of the instance's speeds and the
// instance-group loads, bit for bit: each on group's Group.PowerKW and
// Group.DelayCost with the same operands and association (taken from its
// class row: groups of one shape share a server type and N), added in
// ascending cluster order. Off groups add exact zeros there (speed 0, load
// 0), so skipping them changes no bit.
func (in *Instance) objective(loads []float64) float64 {
	t := &in.cls
	for _, r := range t.live {
		t.rows[r].memoL = math.NaN()
	}
	var it, d float64
	for i, r := range in.gRow {
		c := &t.rows[r]
		l := loads[i]
		if l != c.memoL {
			// A class's groups mostly carry one load, so a row keeps its
			// last member's terms and recomputes them only on a new load.
			c.memoL, c.memoP, c.memoD = l, c.n*c.staticKW+c.compKW*l/c.x, 0
			switch {
			case l <= 0:
			case l >= c.rate:
				c.memoD = math.Inf(1)
			default:
				c.memoD = c.n * l / (c.rate - l)
			}
		}
		it += c.memoP
		d += c.memoD // +0 for an idle group: an exact identity
	}
	p := in.prob
	grid := p.Cluster.PUE*it - p.OnsiteKW
	if grid < 0 {
		grid = 0
	}
	return p.We*grid + p.Wd*d
}

// solveWith runs the regime analysis with a pluggable filler so the
// price protocol can reuse the identical logic. The returned slice
// aliases the instance's scratch buffers; callers consume or copy it before
// the next solve.
func (in *Instance) solveWith(f filler) ([]float64, error) {
	in.dualNu, in.dualMu = math.NaN(), math.NaN()
	if len(in.gIdx) == 0 {
		if in.prob.LambdaRPS > 0 {
			return nil, ErrInfeasible
		}
		return nil, nil
	}
	r := in.prob.OnsiteKW
	// Regime "grid": electricity weight fully active.
	gridLoads, err := f.fillInto(in.scratch.grid, in.prob.We)
	if err != nil {
		return nil, err
	}
	in.scratch.grid = gridLoads
	if in.prob.We == 0 || in.staticAtLeast(r-powerTol) || in.powerOf(gridLoads) >= r-powerTol {
		in.dualNu, in.dualMu = in.sys.nu, 1
		return gridLoads, nil
	}
	// Regime "surplus": on-site renewables cover everything; electricity
	// weight vanishes under the [·]^+.
	freeLoads, err := f.fillInto(in.scratch.free, 0)
	if err != nil {
		return nil, err
	}
	in.scratch.free = freeLoads
	if in.powerOf(freeLoads) <= r+powerTol {
		in.dualNu, in.dualMu = in.sys.nu, 0
		return freeLoads, nil
	}
	// Kink regime: the optimum pins total power at r. Total power is
	// non-increasing in the effective weight ω, so bisect ω ∈ [0, We].
	// The two rotating scratch buffers remember the last two evaluated
	// (ω, loads) pairs; when the bisection returns an ω it already
	// evaluated (a saturated endpoint or an exact hit), the computed loads
	// are reused instead of re-filled.
	var (
		lastW  [2]float64
		lastNu [2]float64
		lastOK [2]bool
		cur    int
	)
	omega := numopt.BisectMonotone(func(w float64) float64 {
		loads, ferr := f.fillInto(in.scratch.bis[cur], w)
		if ferr != nil {
			err = ferr
			return 0
		}
		in.scratch.bis[cur] = loads
		lastW[cur], lastNu[cur], lastOK[cur] = w, in.sys.nu, true
		cur = 1 - cur
		return in.powerOf(loads)
	}, r, 0, in.prob.We, in.prob.We*1e-12, 100)
	if err != nil {
		return nil, err
	}
	mu := omega / in.prob.We
	for i := range lastW {
		if lastOK[i] && lastW[i] == omega {
			in.dualNu, in.dualMu = lastNu[i], mu
			return in.scratch.bis[i], nil
		}
	}
	loads, err := f.fillInto(in.scratch.bis[cur], omega)
	if err != nil {
		return nil, err
	}
	in.scratch.bis[cur] = loads
	in.dualNu, in.dualMu = in.sys.nu, mu
	return loads, nil
}

const powerTol = 1e-6 // kW: tolerance when comparing power against r(t)

// Dual returns the last split's dual: nu, the price its returned fill
// allocated at, and mu, that fill's electricity weight over We (1 in the
// grid regime, 0 in the surplus one, ω/We at the kink). Both are NaN before
// the first split after a Reset and after a split that ran no price search
// (Wd = 0, or a fill that met λ = 0 or the full capacity).
func (in *Instance) Dual() (nu, mu float64) { return in.dualNu, in.dualMu }

// LowerBound returns a lower bound on the value SolveInto (or
// SolveDistributedInto) returns for the current speeds, from the Lagrangian
// dual of the split at price nu and kink weight mu in [0, 1], or −Inf where
// it certifies nothing (mu outside [0, 1], a non-finite operand or result).
//
// Write the kink as We·[P − r]^+ ≥ We·μ·(P − r) and price Σ L = λ at ν. For
// any loads L in the box 0 ≤ L_g ≤ γ·R_g,
//
//	V(L) ≥ G(ν, μ) + ν·(Σ L − λ),
//	G(ν, μ) = We·μ·(base − r) + ν·λ + Σ_classes cnt·min over 0 ≤ L ≤ cap of h(L),
//	h(L) = −ρ·L + Wd·n·L/(R − L),  ρ = ν − We·μ·slope,
//
// with base the static power and slope a class's power per RPS. h is convex
// with h'(0) = −ρ + Wd·n/R: its minimum is 0 at L = 0 when ρ ≤ Wd·n·R/R²,
// h(cap) when classAlloc's R − √(Wd·n·R/ρ) reaches cap, and otherwise
// −(√(ρ·R) − √(Wd·n))² at that point (with s = R − L, h = −ρ·R + ρ·s +
// Wd·n·R/s − Wd·n, least at s² = Wd·n·R/ρ).
//
// Slack. With u = 2⁻⁵³, take M = We·base + We·μ·|r| + |ν|·λ +
// Σ cnt·(|ν| + We·slope)·R + |Ĝ|, Ĝ the computed G, and γ_k = k·u/(1 − k·u).
// Five errors separate the split's computed value V̂ from Ĝ:
//   - the objective sums its n on groups' power and delay terms, each
//     rounded at most 4 times, and 4 more operations combine them, so V̂ is
//     within γ_{n+8}·(We·(P + |r|) + Wd·d) of the value V of its float
//     loads. Here P ≤ base + Σ cnt·slope·R, Wd·d ≤ V, and We·|r| matters
//     only when P − r or its rounding is positive, where it is at most
//     We·P·(1 + γ) (r ≥ 0) or V (r < 0): the error is within 2γ_{n+8}·M + γ·V;
//   - G is taken with base (the tracked sum), slope (rounded apart from
//     p_c/x) and classAlloc's branch tests instead of the objective's own
//     operands: a perturbed ρ moves a class's minimum by at most its change
//     times cap, and a branch test decided by a rounding error moves it by
//     O(u)·ρ·R (the unclamped form is below the clamped minimum, and at the
//     cap end convexity gives min ≥ h(cap) − h'(cap)·cap with h'(cap) =
//     O(u)·ρ); in each branch every term is at most (|ν| + We·slope)·R;
//   - Ĝ sums classes + 2 such terms, each rounded at most 8 times;
//   - the fill's loads miss λ: numopt.WaterFillInto repairs its residual to
//     waterFillTol while the float residual drifts from the true one by at
//     most (4n + 8)·u·capSum, and its full-capacity branch leaves Σ L short
//     of λ by at most 10⁻¹² ·capSum (what Fits allows) plus γ_n·capSum. The
//     repair keeps every load in [0, cap]: it tops a group up to cap only
//     when the group lies within the residual of it, where cap − L is exact;
//   - (1 − γ)·V ≥ (1 − γ)·Ĝ − … contributes γ·|Ĝ|.
//
// So V̂ is at least Ĝ − |ν|·Δ − 4·γ_{n+classes+16}·M with
// Δ = waterFillTol + (10⁻¹² + (4n + 8)·u)·capSum. The slack subtracted is
// |ν|·(waterFillTol + (2·10⁻¹² + (n + 2)·2⁻⁴⁹)·capSum) +
// (n + classes + 16)·2⁻⁵⁰·M: the second term is 8·(n + classes + 16)·u·M,
// and the margin over 4·γ also covers the rounding of M, of the slack and
// of the final subtraction, for any n + classes far below 2⁴⁰.
//
// Unless a reader has taken them at these speeds, base and capSum are the
// tracked sums' class estimates, each within its certified slack of the
// ascending sum. An estimate of base within s moves G by at most ω·s, which
// is subtracted as well (M takes base's upper end), and capSum enters the
// slack at its upper end, so the bound stays below V̂ in O(classes).
func (in *Instance) LowerBound(nu, mu float64) float64 {
	p := in.prob
	if !(mu >= 0 && mu <= 1) || math.IsNaN(nu) || math.IsInf(nu, 0) {
		return math.Inf(-1)
	}
	omega, wd, anu := p.We*mu, p.Wd, math.Abs(nu)
	base, baseSlack := in.bound(sumStatic)
	caps, capSlack := in.bound(sumCap)
	g := omega*(base-p.OnsiteKW) + nu*p.LambdaRPS
	m := p.We*(base+baseSlack) + omega*math.Abs(p.OnsiteKW) + anu*p.LambdaRPS
	t := &in.cls
	for _, r := range t.live {
		c := &t.rows[r]
		m += c.cnt * (anu + p.We*c.slope) * c.rate
		rho := nu - omega*c.slope
		if rho <= 0 {
			continue // h ≥ 0 = h(0)
		}
		var h float64
		switch l := c.rate - math.Sqrt(c.wdnr/rho); {
		case l <= 0:
			continue
		case l >= c.cap:
			h = -rho*c.cap + wd*c.n*c.cap/(c.rate-c.cap)
		default:
			d := math.Sqrt(rho*c.rate) - math.Sqrt(wd*c.n)
			h = -(d * d)
		}
		g += c.cnt * h
	}
	n, classes := float64(len(in.gIdx)), float64(len(t.live))
	slack := omega*baseSlack + anu*(waterFillTol+(2e-12+(n+2)*0x1p-49)*(caps+capSlack)) +
		(n+classes+16)*0x1p-50*(m+math.Abs(g))
	if lb := g - slack; lb > math.Inf(-1) && lb < math.Inf(1) {
		return lb
	}
	return math.Inf(-1)
}

// Solve computes the optimal load split of Eq. (18) for fixed speeds using
// the centralized solver. See Instance for the reusable form.
func Solve(p *dcmodel.SlotProblem, speeds []int) (dcmodel.Solution, error) {
	in, err := NewInstance(p, speeds)
	if err != nil {
		return dcmodel.Solution{}, err
	}
	return in.Solve()
}
