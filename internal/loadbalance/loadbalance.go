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
// pays a delta update plus an allocation-free SolveInto per proposal instead
// of rebuilding the subproblem 200·n times per slot.
//
// The per-group constants live in a struct-of-arrays layout (parallel
// gIdx/gRow/gN/gRate/gSlope/gCap slices over the on groups, backed by the
// cluster's cached dcmodel.ClusterArrays): the water-fill and sweep inner
// loops walk flat float64 arrays instead of pointer-chasing group structs,
// which keeps them cache-linear at fleet scale (10k+ groups per site).
//
// On groups with the same shape (dcmodel.ClusterArrays.Shape) at the same
// speed form one class and get the same allocation at every price, so each
// price probe of the water-fill evaluates the allocation once per live class
// and weighs it by the class's group count. That estimate of the ascending
// per-group sum comes with a rounding-error bound (numopt.ClassSumSlack)
// that decides almost every bisection comparison; only an undecided probe
// accumulates the per-group values in ascending order. Every comparison is
// decided as the exact sum decides it, hence the same bits. The class table
// is kept by delta: SetSpeed moves one group between two classes' counts and
// Revert moves it back, so a proposal costs what it changes. Each fill also
// starts its price search from the price the last fill at the same
// electricity weight found, which is advisory and changes no bit either.
package loadbalance

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dcmodel"
	"repro/internal/numopt"
)

// ErrInfeasible is returned when λ exceeds the γ-discounted capacity of the
// given speed configuration.
var ErrInfeasible = errors.New("loadbalance: load exceeds configuration capacity")

// group is one on-group's precomputed constants gathered back into a struct —
// the undo snapshot unit for SetSpeed/Revert. The live state is the
// Instance's parallel slices; entry/setEntry convert between the two views.
type group struct {
	idx     int     // index into the cluster's group list
	row     int32   // its (shape, speed) class's row in the class table
	n       float64 // number of servers
	rate    float64 // R = n·x: aggregate service rate
	slopeKW float64 // A = PUE·p_c(x)/x: marginal facility power per RPS
	cap     float64 // γ·R: maximum allowed load
}

// makeGroup builds the prepared constants for cluster group g at speed k > 0
// from the cluster's flat arrays, with exactly the arithmetic NewInstance has
// always used (the arrays store RateAt/PowerSlopeKWPerRPS values verbatim).
// It counts the group in its class's row, appending the row when the table
// has not met the class since Reset.
func (in *Instance) makeGroup(g, k int) group {
	r := in.arr.Rate(g, k)
	e := group{
		idx:     g,
		n:       in.arr.N[g],
		rate:    r,
		slopeKW: in.prob.Cluster.PUE * in.arr.Slope(g, k),
		cap:     in.prob.Cluster.Gamma * r,
	}
	id := in.arr.Shape[g]*int32(in.arr.Stride) + int32(k)
	e.row = in.cls.slot[id]
	if e.row < 0 {
		typ := &in.prob.Cluster.Groups[g].Type
		e.row = int32(len(in.cls.rows))
		in.cls.slot[id] = e.row
		in.cls.rows = append(in.cls.rows, classRow{
			id:       id,
			rate:     e.rate,
			cap:      e.cap,
			slope:    e.slopeKW,
			wdnr:     in.prob.Wd * e.n * e.rate,
			n:        e.n,
			staticKW: in.arr.StaticKW[g],
			compKW:   typ.ComputingKW(k),
			x:        typ.Rate(k),
		})
	}
	in.cls.inc(e.row)
	return e
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
// the instance bit-for-bit. The sums are restored from the snapshot rather
// than recomputed: they were fresh ordered sums before the mutation, so
// restoring them reproduces the exact pre-mutation bits.
type undoRecord struct {
	valid   bool
	kind    undoKind
	g       int   // cluster group the mutation touched
	oldK    int   // its previous speed index
	pos     int   // position in the on-group slices the mutation touched
	entry   group // the displaced entry (modify/remove)
	rows    int   // class-table rows before the mutation, which may append one
	baseKW  float64
	capSum  float64
	rateSum float64
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

	// The objective's per-group terms: Group.PowerKW = n·p_s + p_c·L/x and
	// Group.DelayCost = n·L/(R − L).
	n, staticKW, compKW, x float64

	oslope float64 // ω·slope, set once per fill
	val    float64 // the allocation at the current price probe

	// objective's memo: a member group's power and delay terms at load memoL.
	memoL, memoP, memoD float64
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
func (s *fillSystem) Cap(i int) float64 { return s.in.gCap[i] }
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
func (s *fillSystem) CapSum() float64 { return s.in.capSum }

// SumAlloc implements numopt.BulkWaterSystem: Σ_i Alloc(i, ν) accumulated in
// ascending index order — the per-group values and the order of the
// additions of the generic per-item loop.
func (s *fillSystem) SumAlloc(nu float64) float64 {
	s.classAlloc(nu)
	return s.gather()
}

// gather returns the ascending sum over the on groups of their rows' val.
func (s *fillSystem) gather() float64 {
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
		return omega*in.gSlope[buf[a]] < omega*in.gSlope[buf[b]]
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

	// On groups in struct-of-arrays layout, ascending cluster index. The
	// six slices are parallel: position i describes one on group.
	gIdx   []int     // cluster group index
	gRow   []int32   // its class's row in cls
	gN     []float64 // float64(n_g)
	gRate  []float64 // R = n·x
	gSlope []float64 // A = PUE·p_c(x)/x
	gCap   []float64 // γ·R

	pos    []int     // cluster group index -> position in the slices, -1 when off
	static []float64 // per cluster group: PUE·n·StaticKW, speed-independent

	// Tracked aggregates. Each is recomputed as a fresh ordered sum over the
	// on groups after every structural change (never updated by +=delta):
	// floating-point addition is order-sensitive, and accumulated delta
	// drift in the last ulps would break the golden bit-for-bit parity the
	// repository pins against a from-scratch NewInstance build.
	baseKW  float64 // PUE · Σ static power of on groups (load-independent)
	capSum  float64 // Σ γ·R of on groups (the feasibility bound NewInstance checks)
	rateSum float64 // Σ R of on groups (Cluster.UsableCapacityRPS before the γ factor)

	// The class table, built by Reset and kept by delta after it. Reset
	// sizes it for the most classes the cluster can have live at once,
	// min(groups, Shapes·K); only a class first met after Reset may grow
	// the rows.
	cls classTable

	// The dual of the last split: the price its returned fill allocated at
	// and that fill's electricity weight over We, NaN when it had none.
	dualNu, dualMu float64

	undo    undoRecord
	sys     fillSystem
	proto   priceProtocol
	order   orderCache
	scratch solveScratch
}

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
// sums come from the same recompute, and the price hints are cleared. A
// problem whose scalars fail dcmodel.SlotProblem.CheckScalars (a NaN or
// infinite λ, weight or on-site supply, or a negative one) is an error. On error the instance is left
// invalid; it must be Reset successfully before further use.
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
	if cap(in.pos) < n {
		in.pos = make([]int, 0, n)
		in.static = make([]float64, 0, n)
	}
	in.pos = in.pos[:n]
	in.static = in.static[:n]
	if cap(in.gIdx) < n {
		in.gIdx = make([]int, 0, n)
		in.gRow = make([]int32, 0, n)
		in.gN = make([]float64, 0, n)
		in.gRate = make([]float64, 0, n)
		in.gSlope = make([]float64, 0, n)
		in.gCap = make([]float64, 0, n)
	} else {
		in.gIdx, in.gRow, in.gN, in.gRate, in.gSlope, in.gCap =
			in.gIdx[:0], in.gRow[:0], in.gN[:0], in.gRate[:0], in.gSlope[:0], in.gCap[:0]
	}
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
	for g := range p.Cluster.Groups {
		k := speeds[g]
		if k < 0 || k > in.arr.NumSpeeds[g] {
			return fmt.Errorf("loadbalance: group %d speed index %d out of range", g, k)
		}
		in.static[g] = p.Cluster.PUE * in.arr.N[g] * in.arr.StaticKW[g]
		in.pos[g] = -1
		if k == 0 {
			continue
		}
		in.pos[g] = len(in.gIdx)
		in.appendEntry(in.makeGroup(g, k))
	}
	in.recompute()
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

// appendEntry pushes one on group onto the end of the parallel slices.
func (in *Instance) appendEntry(e group) {
	in.gIdx = append(in.gIdx, e.idx)
	in.gRow = append(in.gRow, e.row)
	in.gN = append(in.gN, e.n)
	in.gRate = append(in.gRate, e.rate)
	in.gSlope = append(in.gSlope, e.slopeKW)
	in.gCap = append(in.gCap, e.cap)
}

// entry gathers position p of the parallel slices back into a struct.
func (in *Instance) entry(p int) group {
	return group{
		idx: in.gIdx[p], row: in.gRow[p], n: in.gN[p], rate: in.gRate[p],
		slopeKW: in.gSlope[p], cap: in.gCap[p],
	}
}

// setEntry scatters e into position p of the parallel slices.
func (in *Instance) setEntry(p int, e group) {
	in.gIdx[p], in.gRow[p], in.gN[p], in.gRate[p], in.gSlope[p], in.gCap[p] =
		e.idx, e.row, e.n, e.rate, e.slopeKW, e.cap
}

// recompute refreshes the tracked aggregates as fresh sums over the on
// groups in ascending cluster order — the exact accumulation order of a
// from-scratch NewInstance (off groups contribute an exact +0 there, which
// is an identity), so the values are bit-for-bit reproducible.
func (in *Instance) recompute() {
	var base, caps, rates float64
	for i := range in.gIdx {
		base += in.static[in.gIdx[i]]
		caps += in.gCap[i]
		rates += in.gRate[i]
	}
	in.baseKW, in.capSum, in.rateSum = base, caps, rates
	in.order.valid = false
}

// Speeds returns the instance's current speed vector. The slice is the
// instance's own state: treat it as read-only.
func (in *Instance) Speeds() []int { return in.speeds }

// Feasible reports whether the current speed configuration can carry the
// problem's load under the γ cap. It is the O(1) equivalent of
// SlotProblem.Feasible on the instance's speeds: rateSum is maintained in
// UsableCapacityRPS's exact accumulation order, so the comparison is
// bit-for-bit the same.
func (in *Instance) Feasible() bool {
	return in.prob.LambdaRPS <= in.rateSum*in.prob.Cluster.Gamma*(1+1e-12)
}

// Fits reports whether λ fits under the tracked γ-capacity sum: the check
// Reset and every split make before water-filling. A split of an instance
// that fits cannot fail, except SolveDistributedInto's without a delay
// weight.
func (in *Instance) Fits() bool {
	return in.prob.LambdaRPS <= in.capSum*(1+1e-12)
}

// SetSpeed retargets cluster group g to speed index k, updating the prepared
// subproblem in place, and snapshots the previous state so Revert can undo
// it. On groups stay ordered by cluster index, exactly as NewInstance builds
// them, and the class table moves g's count from its old class's row to its
// new one's. A no-op change (k equal to the current speed) still records an
// (empty) undo snapshot.
func (in *Instance) SetSpeed(g, k int) error {
	if g < 0 || g >= len(in.pos) {
		return fmt.Errorf("loadbalance: group %d out of range", g)
	}
	if k < 0 || k > in.arr.NumSpeeds[g] {
		return fmt.Errorf("loadbalance: group %d speed index %d out of range", g, k)
	}
	old := in.speeds[g]
	in.undo = undoRecord{
		valid: true, kind: undoNone, g: g, oldK: old, rows: len(in.cls.rows),
		baseKW: in.baseKW, capSum: in.capSum, rateSum: in.rateSum,
	}
	if k == old {
		return nil
	}
	in.speeds[g] = k
	switch {
	case old > 0 && k > 0:
		p := in.pos[g]
		in.undo.kind, in.undo.pos, in.undo.entry = undoModify, p, in.entry(p)
		in.cls.dec(in.gRow[p])
		in.setEntry(p, in.makeGroup(g, k))
	case old > 0: // k == 0: drop the entry
		p := in.pos[g]
		in.undo.kind, in.undo.pos, in.undo.entry = undoRemove, p, in.entry(p)
		in.cls.dec(in.gRow[p])
		in.removeAt(p)
	default: // old == 0, k > 0: insert in cluster-index order
		p := in.insertPos(g)
		in.undo.kind, in.undo.pos = undoInsert, p
		in.insertAt(p, in.makeGroup(g, k))
	}
	in.recompute()
	return nil
}

// Revert undoes the most recent SetSpeed since the last Revert or Commit,
// restoring the instance bit-for-bit (the tracked sums come back from the
// snapshot, not a recomputation; the class counts move back and a row the
// SetSpeed appended is popped). It is a no-op when nothing is pending.
func (in *Instance) Revert() {
	if !in.undo.valid {
		return
	}
	u := in.undo
	in.undo.valid = false
	in.speeds[u.g] = u.oldK
	switch u.kind {
	case undoNone:
		return // sums and slices untouched; order cache still valid
	case undoModify:
		in.cls.dec(in.gRow[u.pos])
		in.cls.inc(u.entry.row)
		in.setEntry(u.pos, u.entry)
	case undoRemove:
		in.cls.inc(u.entry.row)
		in.insertAt(u.pos, u.entry)
	case undoInsert:
		in.cls.dec(in.gRow[u.pos])
		in.removeAt(u.pos)
	}
	in.cls.truncate(u.rows)
	in.baseKW, in.capSum, in.rateSum = u.baseKW, u.capSum, u.rateSum
	in.order.valid = false
}

// Commit accepts the most recent SetSpeed, discarding its undo snapshot.
func (in *Instance) Commit() { in.undo.valid = false }

// insertPos returns the position in the on-group slices where cluster group
// g belongs (on groups are kept sorted by cluster index).
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

func (in *Instance) insertAt(p int, e group) {
	in.appendEntry(group{})
	copy(in.gIdx[p+1:], in.gIdx[p:])
	copy(in.gRow[p+1:], in.gRow[p:])
	copy(in.gN[p+1:], in.gN[p:])
	copy(in.gRate[p+1:], in.gRate[p:])
	copy(in.gSlope[p+1:], in.gSlope[p:])
	copy(in.gCap[p+1:], in.gCap[p:])
	in.setEntry(p, e)
	for i := p; i < len(in.gIdx); i++ {
		in.pos[in.gIdx[i]] = i
	}
}

func (in *Instance) removeAt(p int) {
	g := in.gIdx[p]
	copy(in.gIdx[p:], in.gIdx[p+1:])
	copy(in.gRow[p:], in.gRow[p+1:])
	copy(in.gN[p:], in.gN[p+1:])
	copy(in.gRate[p:], in.gRate[p+1:])
	copy(in.gSlope[p:], in.gSlope[p+1:])
	copy(in.gCap[p:], in.gCap[p+1:])
	n := len(in.gIdx) - 1
	in.gIdx, in.gRow, in.gN, in.gRate, in.gSlope, in.gCap =
		in.gIdx[:n], in.gRow[:n], in.gN[:n], in.gRate[:n], in.gSlope[:n], in.gCap[:n]
	in.pos[g] = -1
	for i := p; i < n; i++ {
		in.pos[in.gIdx[i]] = i
	}
}

// marginal returns d(cost)/dL for on group i (slice position) at load v
// under electricity weight omega.
func (in *Instance) marginal(i int, omega, v float64) float64 {
	den := in.gRate[i] - v
	if den <= 0 {
		return math.Inf(1)
	}
	return omega*in.gSlope[i] + in.prob.Wd*in.gN[i]*in.gRate[i]/(den*den)
}

// alloc returns the load at which on group i's marginal cost equals price nu
// under electricity weight omega, clamped to [0, cap].
func (in *Instance) alloc(i int, omega, nu float64) float64 {
	rem := nu - omega*in.gSlope[i]
	if rem <= 0 {
		return 0
	}
	if in.prob.Wd <= 0 {
		// Pure electricity cost: bang-bang (handled by fillNoDelay; this
		// path keeps alloc total so water-filling code stays generic).
		return in.gCap[i]
	}
	// Wd·n·R/(R−L)² = rem  →  L = R − sqrt(Wd·n·R/rem).
	l := in.gRate[i] - math.Sqrt(in.prob.Wd*in.gN[i]*in.gRate[i]/rem)
	return numopt.Clamp(l, 0, in.gCap[i])
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
		in.sys.nu = math.NaN() // bang-bang: no price search
		return in.fillNoDelayInto(dst, omega), nil
	}
	return in.waterFill(&in.sys, dst, omega)
}

// waterFill water-fills λ under electricity weight omega through sys: the
// instance's fillSystem, or the price protocol over it.
func (in *Instance) waterFill(sys numopt.WaterSystem, dst []float64, omega float64) ([]float64, error) {
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
		take := math.Min(remaining, in.gCap[i])
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
	p := in.baseKW
	for i := 0; i < len(in.gIdx); i++ {
		p += in.gSlope[i] * loads[i]
	}
	return p
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
	return in.solveIntoWith(in, dst)
}

// solveIntoWith is SolveInto over filler f.
func (in *Instance) solveIntoWith(f filler, dst *dcmodel.Solution) error {
	if !in.Fits() {
		return ErrInfeasible
	}
	loads, err := in.solveWith(f)
	if err != nil {
		return err
	}
	dst.Speeds = append(dst.Speeds[:0], in.speeds...)
	dst.Load = in.expandInto(dst.Load, loads)
	dst.Value = in.objective(loads)
	return nil
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
	if in.prob.We == 0 || in.powerOf(gridLoads) >= r-powerTol {
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
func (in *Instance) LowerBound(nu, mu float64) float64 {
	p := in.prob
	if !(mu >= 0 && mu <= 1) || math.IsNaN(nu) || math.IsInf(nu, 0) {
		return math.Inf(-1)
	}
	omega, wd, anu := p.We*mu, p.Wd, math.Abs(nu)
	g := omega*(in.baseKW-p.OnsiteKW) + nu*p.LambdaRPS
	m := p.We*in.baseKW + omega*math.Abs(p.OnsiteKW) + anu*p.LambdaRPS
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
	slack := anu*(waterFillTol+(2e-12+(n+2)*0x1p-49)*in.capSum) +
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
