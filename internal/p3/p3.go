// Package p3 defines the interface for solvers of the paper's per-slot
// optimization P3 (Eq. 16) and provides two reference solvers:
//
//   - Enumerate, an exhaustive oracle over all speed vectors, exact but
//     exponential — the correctness yardstick for everything else;
//   - HomogeneousProblem.Solve, a fast exact solver for fleets of identical
//     servers that exploits symmetry: at the optimum of a symmetric convex
//     objective, all active servers run at one speed with equal load, so it
//     suffices to enumerate the speed level and search the active-server
//     count (the objective is convex in the count). This is the solver that
//     drives the year-long simulation sweeps; GSD (package gsd) is the
//     paper's distributed solver and is cross-validated against both.
package p3

import (
	"errors"
	"math"

	"repro/internal/dcmodel"
	"repro/internal/loadbalance"
	"repro/internal/numopt"
)

// Solver solves one slot's P3 instance: choose speeds and load split
// minimizing We·[p − r]^+ + Wd·d.
type Solver interface {
	Solve(p *dcmodel.SlotProblem) (dcmodel.Solution, error)
}

// ErrTooLarge is returned by Enumerate when the search space exceeds its
// hard cap.
var ErrTooLarge = errors.New("p3: instance too large for exhaustive enumeration")

// ErrInfeasible is returned when no speed vector can carry the load.
var ErrInfeasible = errors.New("p3: no feasible configuration")

// ErrInvalid is returned for malformed problem instances — a non-positive
// fleet, a negative or NaN load. It is a caller bug, deliberately distinct
// from ErrInfeasible's "no configuration can carry this load", which
// solvers legitimately probe for (the geo split treats infeasibility as
// "site full"; it must not mistake a corrupted instance for that).
var ErrInvalid = errors.New("p3: invalid problem instance")

// EnumerateLimit caps the number of speed vectors Enumerate will visit.
const EnumerateLimit = 2_000_000

// Enumerate exhaustively searches every speed vector, solving the optimal
// load split for each feasible one, and returns the global optimum of P3.
// Intended for small test instances only.
func Enumerate(p *dcmodel.SlotProblem) (dcmodel.Solution, error) {
	n := len(p.Cluster.Groups)
	total := 1
	for g := 0; g < n; g++ {
		total *= p.Cluster.Groups[g].Type.NumSpeeds() + 1
		if total > EnumerateLimit {
			return dcmodel.Solution{}, ErrTooLarge
		}
	}
	speeds := make([]int, n)
	best := dcmodel.Solution{Value: math.Inf(1)}
	found := false
	for {
		if p.Feasible(speeds) {
			if sol, err := loadbalance.Solve(p, speeds); err == nil && sol.Value < best.Value {
				best = sol.Clone()
				found = true
			}
		}
		// Odometer increment over the mixed-radix speed vector.
		i := 0
		for ; i < n; i++ {
			speeds[i]++
			if speeds[i] <= p.Cluster.Groups[i].Type.NumSpeeds() {
				break
			}
			speeds[i] = 0
		}
		if i == n {
			break
		}
	}
	if !found {
		return dcmodel.Solution{}, ErrInfeasible
	}
	return best, nil
}

// HomogeneousProblem is the server-granular form of P3 for a fleet of N
// identical servers. It avoids group vectors entirely: the decision is a
// speed level and an active-server count.
type HomogeneousProblem struct {
	Type      dcmodel.ServerType
	N         int     // fleet size
	Gamma     float64 // γ utilization cap
	PUE       float64
	LambdaRPS float64
	We        float64 // weight on grid energy [p − r]^+
	Wd        float64 // weight on delay cost
	OnsiteKW  float64 // r(t)

	// SwitchWeight is the objective penalty per server toggled on or off
	// relative to PrevActive (0 disables; used for the Fig. 5(d) study).
	SwitchWeight float64
	PrevActive   int
}

// HomogeneousSolution is the optimum of a HomogeneousProblem.
type HomogeneousSolution struct {
	Speed  int     // chosen speed index (1..K); 0 when the fleet is off
	Active int     // number of active servers m
	Value  float64 // objective value including the switching penalty

	PowerKW   float64 // facility power p
	GridKWh   float64 // [p − r]^+
	DelayCost float64 // d
}

// speedKernel is the homogeneous objective compiled for one speed level k:
// it holds every operand that does not depend on the active-server count m,
// so a probe of the integer search pays only the arithmetic in m. It is the
// single formula of the objective: eval and search's probes both go
// through value. A solve compiles the speed-independent operands once
// (compile) and aims the kernel from speed to speed (aim, setSpeed).
type speedKernel struct {
	hp                         *HomogeneousProblem
	lambda, ps, pue, r, we, wd float64
	// ranged reports that the speed-independent operands are in the
	// operand ranges (see evalError); a is We·PUE·p_s, and when a > 0,
	// rPUE is r/PUE.
	ranged  bool
	a, rPUE float64

	speed int // the speed level the kernel is aimed at
	speedOps
	// certified reports that every operand is in the operand ranges; kink
	// is then the count where P(m) = r (see plateau).
	certified bool
	kink      float64
	// searches, probes and aims count search's calls, its evaluations of
	// the objective and aim's calls, across speeds, for tests; skipped has
	// bit k − 1 set for each speed k < 65 solve skips as beaten (see
	// beats).
	searches, probes, aims int
	skipped                uint64
}

// speedOps are the operands of the objective that depend on the speed
// level k.
type speedOps struct {
	x  float64 // Rate(k)
	gx float64 // γ·x, the per-server load cap
	ck float64 // ComputingKW(k)·λ/Rate(k), the fleet's computing power
}

// compile sets the speed-independent operands of a kernel that holds only
// its problem, for setSpeed to aim at a speed. It fills kn in place,
// sparing Solve a copy of the kernel; storing hp through kn would leak it
// to the heap, so the caller sets kn.hp.
func (kn *speedKernel) compile() {
	hp := kn.hp
	kn.lambda, kn.ps, kn.pue = hp.LambdaRPS, hp.Type.StaticKW, hp.PUE
	kn.r, kn.we, kn.wd = hp.OnsiteKW, hp.We, hp.Wd
	kn.ranged = hp.SwitchWeight >= 0 && hp.SwitchWeight <= math.MaxFloat64 &&
		zeroOrModerate(kn.we) && zeroOrModerate(kn.wd) && zeroOrModerate(kn.pue) &&
		zeroOrModerate(kn.ps) && moderate(kn.lambda) && math.Abs(kn.r) <= 0x1p100 &&
		float64(hp.N) <= 0x1p53
	if kn.a = kn.we * kn.pue * kn.ps; kn.ranged && kn.a > 0 {
		kn.rPUE = kn.r / kn.pue
	}
}

// opsAt returns speed level k's operands.
func (kn *speedKernel) opsAt(k int) speedOps {
	st := &kn.hp.Type
	x := st.Rate(k)
	// Evaluated in the order Group.PowerKW evaluates p_c(x_k)·L/x_k.
	return speedOps{x: x, gx: kn.hp.Gamma * x, ck: st.ComputingKW(k) * kn.lambda / x}
}

// setSpeed aims the kernel at speed level k.
func (kn *speedKernel) setSpeed(k int) { kn.aim(k, kn.opsAt(k)) }

// aim aims the kernel at speed level k, whose operands are o.
func (kn *speedKernel) aim(k int, o speedOps) {
	kn.aims++
	kn.speed, kn.speedOps = k, o
	kn.certified = kn.certifies(&o)
	// With no grid slope P is flat, and every count lies left of the kink
	// (P ≤ r) or right of it.
	switch {
	case !kn.certified:
	case kn.a > 0:
		kn.kink = (kn.rPUE - kn.ck) / kn.ps
	case kn.pue*kn.ck <= kn.r:
		kn.kink = math.Inf(1)
	default:
		kn.kink = math.Inf(-1)
	}
}

// certifies reports whether every operand of a speed with operands o is in
// the operand ranges (see evalError).
func (kn *speedKernel) certifies(o *speedOps) bool {
	return kn.ranged && zeroOrModerate(o.ck) && moderate(o.x)
}

// eval returns the objective value for m active servers (m = 0 is the
// fleet switched off), with the facility power p, the grid energy [p − r]^+
// and the delay cost d it was built from. Infeasible counts (m = 0 under
// load, or past the γ cap) return +Inf and zero operands.
func (kn *speedKernel) eval(m int) (v, power, grid, delay float64) {
	hp := kn.hp
	if m == 0 {
		if kn.lambda > 0 {
			return math.Inf(1), 0, 0, 0
		}
		return hp.switchPenalty(0), 0, 0, 0
	}
	fm := float64(m)
	if kn.lambda/fm > kn.gx {
		return math.Inf(1), 0, 0, 0
	}
	_, power, grid, delay = kn.value(fm)
	// value's corners, bit for bit as math.Max(0, ·) and Group.DelayCost
	// meet them: math.NaN() for a NaN p − r, no delay without load, and an
	// infinite one where the active servers cannot carry λ.
	if grid != grid {
		grid = math.NaN()
	}
	if kn.lambda <= 0 {
		delay = 0
	} else if kn.lambda >= fm*kn.x {
		delay = math.Inf(1)
	}
	return kn.weigh(grid, delay) + hp.switchPenalty(m), power, grid, delay
}

// value is the objective's formula at fm ≥ 1 active servers: the power
// PUE·(m·p_s + c_k) in Group.PowerKW's order, [p − r]^+ (+0 for every
// non-positive difference, −0 included), the M/G/1/PS delay m·λ/(m·x − λ)
// in Group.DelayCost's and their weighted sum. It is small enough to
// inline into search's probes. eval adds the γ cap, the switching penalty
// and the corners value leaves out (a NaN p − r, no load, m·x ≤ λ), none of
// which a plain window meets (see plain).
func (kn *speedKernel) value(fm float64) (v, power, grid, delay float64) {
	power = kn.pue * (fm*kn.ps + kn.ck)
	grid = max(power-kn.r, 0)
	delay = fm * kn.lambda / (fm*kn.x - kn.lambda)
	return kn.weigh(grid, delay), power, grid, delay
}

// weigh is the objective's weighted sum We·[p − r]^+ + Wd·d.
func (kn *speedKernel) weigh(grid, delay float64) float64 { return kn.we*grid + kn.wd*delay }

// probe is search's evaluation of the objective at m.
func (kn *speedKernel) probe(m int) float64 {
	kn.probes++
	v, _, _, _ := kn.value(float64(m))
	return v
}

// sweep is the guard sweep's width in search's numopt.MinimizeInt calls.
const sweep = 3

// search minimizes eval over [lo, hi] (1 ≤ lo ≤ hi) and returns what
// numopt.MinimizeInt(eval, lo, hi, sweep) returns. In a plain window it
// reads the answer off plateau's counts: with s = min(max(mL, lo), hi)
// and e = max(min(mR, hi), s), it probes [s, e] (inlined, through value)
// when that is at most 2·sweep + 1 counts, and returns the first least
// probe if the probes are shaped (fall strictly to it and never fall after
// it); least then reports that the value is the least eval over [lo, hi].
// Otherwise, and outside a plain window, it calls MinimizeInt. The shape
// check fails, for one, where a server without static power makes the
// energy term flat and the delay moves the sum by single ulps
// (TestSearchFallsBackOnUnshapedPlateau).
//
// Why that is MinimizeInt's answer. The plateau certifies that eval falls
// strictly on [lo, s] and never falls on [e, hi] (the clamps only shrink
// those runs or make them single counts); a shaped [s, e] joins the two,
// so eval over [lo, hi] falls strictly to its leftmost minimum m° and
// never falls after it. On such a function each of MinimizeInt's ternary
// steps keeps m° in [a, b]: f(m1) ≤ f(m2) rules out m° ≥ m2 (f would fall
// strictly from m1 to m2), and f(m1) > f(m2) rules out m° ≤ m1 (f would
// not fall from m1 to m2). Its sweep then covers m°, passes only larger
// values before it and takes a new best only on a strictly smaller one, so
// it returns m° with eval(m°)'s bits, which is the first least probe of
// [s, e]. A plain window's values are never NaN or −0, so no comparison
// here or in MinimizeInt treats unequal bits as equal.
func (kn *speedKernel) search(lo, hi int) (m int, v float64, least bool) {
	kn.searches++
	if kn.plain(lo) {
		mL, mR := kn.plateau(lo, hi)
		s := min(max(mL, lo), hi)
		if e := max(min(mR, hi), s); e-s <= 2*sweep {
			var vs [2*sweep + 1]float64
			for m := s; m <= e; m++ {
				vs[m-s] = kn.probe(m)
			}
			if j, ok := shaped(vs[:e-s+1]); ok {
				return s + j, vs[j], true
			}
		}
	}
	m, v = numopt.MinimizeInt(func(m int) float64 {
		kn.probes++
		v, _, _, _ := kn.eval(m)
		return v
	}, lo, hi, sweep)
	return m, v, false
}

// shaped returns the index j of the first least value of vs (non-empty),
// and whether vs falls strictly to it and never falls after it:
// vs[i] > vs[i+1] for i < j and vs[i] ≤ vs[i+1] for i ≥ j. A NaN makes it
// false unless vs holds one value.
func shaped(vs []float64) (j int, ok bool) {
	for j+1 < len(vs) && vs[j] > vs[j+1] {
		j++
	}
	for i := j; i+1 < len(vs); i++ {
		if !(vs[i] <= vs[i+1]) {
			return j, false
		}
	}
	return j, true
}

// plain reports whether value is eval bit for bit at every count m ≥ lo:
// the kernel is certified (so no operation overflows, p − r is never NaN
// and the weighted sum never −0), has no switching penalty, λ/lo passes the
// γ cap and lo·x exceeds λ. The last two hold for every larger count too,
// since correctly rounded division and multiplication are monotone.
func (kn *speedKernel) plain(lo int) bool {
	flo := float64(lo)
	return kn.certified && kn.hp.SwitchWeight == 0 && !(kn.lambda/flo > kn.gx) && flo*kn.x > kn.lambda
}

// plateau returns counts mL and mR in [lo − 1, hi + 1] that decide every
// comparison of eval over a plain window [lo, hi] they reach:
// eval(p) > eval(q) for p < q ≤ mL, and eval(p) ≤ eval(q) for
// mR ≤ p < q. They decide nothing (lo − 1 and hi + 1) where evalError
// bounds nothing.
//
// With F, P and E as in evalError, A = We·PUE·p_s and K the kink where
// P(K) = r, F's right slope at m is A·[m ≥ K] − Wd·λ²/(mx − λ)² and its
// left slope A·[m > K] − Wd·λ²/(mx − λ)². The right slope is at least 2E where m ≥ K
// and m ≥ (λ/x)·(1 + √(Wd/(A − 2E))); the left slope is below −2E where
// m < (λ/x)·(1 + √(Wd/(A + 2E))), and also where m ≤ K and
// m < (λ/x)·(1 + √(Wd/(2E))). F is convex, so between counts p < q a left
// slope s at q gives F(p) − F(q) ≥ −s and a right slope s at p gives
// F(q) − F(p) ≥ s; a difference beyond 2E in F fixes the order of eval.
// The thresholds take A rounded outward by 2⁻⁵⁰, K moved outward by
// 2⁻⁴⁸·(|r/PUE| + c_k)/p_s (its rounding is within 5u of that), and are
// moved outward by 2⁻⁴⁰ relatively, beyond their few roundings.
func (kn *speedKernel) plateau(lo, hi int) (mL, mR int) {
	mL, mR = lo-1, hi+1
	e, ok := kn.evalError(lo, hi)
	if !ok {
		return mL, mR
	}
	lx := kn.lambda / kn.x
	mL = countBelow(lx*(1+math.Sqrt(kn.wd/(kn.a*(1+0x1p-50)+2*e)))*(1-0x1p-40), lo, hi)
	if kn.a > 0 {
		slack := 0x1p-48 * (math.Abs(kn.rPUE) + kn.ck) / kn.ps
		kinkLeft := min(kn.kink-slack, lx*(1+math.Sqrt(kn.wd/(2*e)))*(1-0x1p-40))
		mL = max(mL, countBelow(kinkLeft, lo, hi))
		if d := kn.a*(1-0x1p-50) - 2*e; d > 0 {
			mR = countAbove(max(kn.kink+slack, lx*(1+math.Sqrt(kn.wd/d))*(1+0x1p-40)), lo, hi)
		}
	}
	return mL, mR
}

// evalError returns E, a bound on |eval(m) − F(m)| over a plain window
// [lo, hi], F being the objective without its switching penalty over real
// m with mx > λ,
//
//	F(m) = We·[P(m) − r]^+ + Wd·D(m),  P(m) = PUE·(m·p_s + c_k),  D(m) = mλ/(mx − λ),
//
// which is convex. It bounds nothing (ok is false) unless the delay's
// conditioning at lo, κ = lo·x/(lo·x − λ), is at most 2²⁰.
//
// The operand ranges, which ranged and certifies check: the switching
// weight is finite and non-negative; We, Wd, PUE, p_s and c_k are 0 or in
// [2⁻¹⁰⁰, 2¹⁰⁰]; λ and x are in [2⁻¹⁰⁰, 2¹⁰⁰]; |r| ≤ 2¹⁰⁰; and N ≤ 2⁵³.
// With u = 2⁻⁵³, they make every operand of value in a plain window
// normal, so each operation errs by at most u relatively, except that
// We·grid may underflow by 2⁻¹⁰⁷⁵. The power is then within 3u·P(m) of P(m), and as
// [·]^+ is 1-Lipschitz, grid is within u·(4P + |r|) of [P − r]^+. The
// divisor fl(m·x) − λ carries m·x's rounding magnified by κ(m) ≤ κ, so the
// delay is within (κ(m) + 4)·u relatively of D(m). Weighting
// and summing two non-negative terms adds two roundings, so
//
//	|eval(m) − F(m)| ≤ u·(We·(6P(m) + 3|r|) + Wd·D(m)·(κ(m) + 7)) + 2⁻¹⁰⁷⁴.
//
// P rises in m and D·(κ + 7) = (λ/x)·κ·(κ + 7) falls, so E, with P at hi,
// κ at lo and 8 times the slack (which also covers κ's and E's own
// rounding), bounds that error over the window. A compiler that fuses a
// multiply-add only drops roundings.
func (kn *speedKernel) evalError(lo, hi int) (e float64, ok bool) {
	t := float64(lo) * kn.x
	g := t - kn.lambda
	if !(g >= 0x1p-20*t) {
		return 0, false
	}
	return kn.errorBound(&kn.speedOps, t/g, hi), true
}

// errorBound is evalError's E for the speed with operands o over counts up
// to hi whose conditioning κ(m) is at most kappa ≤ 2²⁰. Its floating-point
// value never falls as c or kappa rises or as x falls, every operation
// being monotone and every operand non-negative.
func (kn *speedKernel) errorBound(o *speedOps, kappa float64, hi int) float64 {
	return 0x1p-50*(kn.we*(7*kn.pue*(float64(hi)*kn.ps+o.ck)+4*math.Abs(kn.r))+
		kn.wd*(kn.lambda/o.x)*kappa*(kappa+8)) + 0x1p-1060
}

// capKappa bounds the delay's conditioning κ(m) = m·x/(m·x − λ) at every
// count m that passes the γ cap (fl(λ/m) ≤ fl(γ·x)) when γ ≤ maxCapGamma,
// for any rate x and λ > 0 in certifies' ranges: passing the cap,
// ρ = λ/(m·x) ≤ γ·(1 + u)/(1 − u) < 1 − 2⁻⁷, so κ(m) = 1/(1 − ρ) < 2⁷. For
// γ ≤ 0 no count passes.
const (
	capKappa    = 128
	maxCapGamma = 0.99
)

// countBelow returns the largest count below t, and countAbove the least
// count above it, clamped to [lo − 1, hi + 1]; a NaN t gives the end that
// decides nothing.
func countBelow(t float64, lo, hi int) int {
	switch {
	case !(t > float64(lo)):
		return lo - 1
	case t > float64(hi+1):
		return hi + 1
	}
	return int(math.Ceil(t)) - 1
}

func countAbove(t float64, lo, hi int) int {
	switch {
	case !(t < float64(hi)):
		return hi + 1
	case t < float64(lo-1):
		return lo - 1
	}
	return int(math.Floor(t)) + 1
}

// moderate reports whether v is in [2⁻¹⁰⁰, 2¹⁰⁰], zeroOrModerate whether
// it is also allowed to be 0 (see evalError's operand ranges).
func moderate(v float64) bool { return v >= 0x1p-100 && v <= 0x1p100 }

func zeroOrModerate(v float64) bool { return v == 0 || moderate(v) }

// solution evaluates kn, the kernel of speed k, at m active servers.
func (kn *speedKernel) solution(k, m int) HomogeneousSolution {
	v, power, grid, delay := kn.eval(m)
	return HomogeneousSolution{Speed: k, Active: m, Value: v,
		PowerKW: power, GridKWh: grid, DelayCost: delay}
}

// clampCount converts a whole-valued count bound to an int clamped to
// [0, N+1], so that a bound past the fleet (up to +Inf) cannot overflow
// the conversion; NaN and negative bounds give 0. Solve treats every count
// above N alike (a window starting there is empty), so the clamp changes no
// window.
func (hp *HomogeneousProblem) clampCount(v float64) int {
	if v >= float64(hp.N+1) {
		return hp.N + 1
	}
	if v > 0 {
		return int(v)
	}
	return 0
}

func (hp *HomogeneousProblem) switchPenalty(m int) float64 {
	if hp.SwitchWeight == 0 {
		return 0
	}
	return hp.SwitchWeight * math.Abs(float64(m-hp.PrevActive))
}

// Solve finds the optimal (speed, active count). For each speed level the
// objective is convex in the count (affine-with-kink electricity + convex
// decreasing delay + convex switching penalty), so an integer ternary search
// with a guard sweep is exact. The answer is the lowest speed index whose
// search reaches the least value. Solve visits the speeds fastest first
// (rates ascend with the index, see dcmodel.ServerType.Validate) and skips
// a speed that an already searched speed certifiably beats at every count
// (speedKernel.beats: a faster speed with no more computing power per
// request, whose answer was read off its certified plateau). Every other
// speed is searched, and each search returns what numopt.MinimizeInt
// returns over the same window (speedKernel.search, which reads a plain
// window's answer off its certified plateau). A skipped speed neither is
// the answer nor ties it, so the result is bit for bit that of searching
// every speed in index order with MinimizeInt. A type whose rates do not
// ascend gets the same result, but a speed visited before a faster speed
// that would beat it is searched.
func (hp *HomogeneousProblem) Solve() (HomogeneousSolution, error) {
	kn := speedKernel{hp: hp}
	kn.compile()
	return kn.solve()
}

// solve is Solve on the problem kn was compiled from.
func (kn *speedKernel) solve() (HomogeneousSolution, error) {
	hp := kn.hp
	if hp.N <= 0 || hp.LambdaRPS < 0 || math.IsNaN(hp.LambdaRPS) ||
		hp.PrevActive < 0 || hp.PrevActive > hp.N {
		return HomogeneousSolution{}, ErrInvalid
	}
	if hp.LambdaRPS == 0 {
		// With no load the delay term vanishes; all-off is optimal up to the
		// switching penalty, which is itself minimized near PrevActive — but
		// keeping idle servers on costs static power, so compare both.
		kn.setSpeed(0)
		best := kn.solution(0, 0)
		for k := 1; k <= hp.Type.NumSpeeds(); k++ {
			kn.setSpeed(k)
			if s := kn.solution(k, hp.PrevActive); s.Value < best.Value {
				best = s
			}
		}
		return best, nil
	}
	// The feasible speeds' windows, fastest first; the array holds every
	// type of up to 8 levels without a heap allocation. The windows hold no
	// pointer, so hp does not escape through a grown slice. A speed's window
	// is [lo, N], lo being the least count the γ cap lets carry λ.
	var buf [8]speedWindow
	ws := buf[:0]
	for k := hp.Type.NumSpeeds(); k >= 1; k-- {
		o := kn.opsAt(k)
		lo := max(hp.clampCount(math.Ceil(kn.lambda/o.gx)), 1)
		if lo > hp.N {
			continue
		}
		// Filled field by field: a composite literal would be built on the
		// stack and copied in wider loads than its stores.
		ws = append(ws, speedWindow{})
		w := &ws[len(ws)-1]
		w.speedOps, w.k, w.lo = o, k, lo
	}
	// Each window is searched unless one searched before it beats it; a
	// skipped window's least stays false, so it beats nothing.
	capped := hp.Gamma <= maxCapGamma
	best := bestSpeed{val: math.Inf(1)}
	for i := range ws {
		w := &ws[i]
		if capped && kn.beats(ws[:i], w) {
			if w.k <= 64 {
				kn.skipped |= 1 << (w.k - 1)
			}
			continue
		}
		kn.aim(w.k, w.speedOps)
		m, v, least := kn.search(w.lo, hp.N)
		w.least = least
		if v < best.val || v == best.val && w.k < best.k {
			best = bestSpeed{k: w.k, m: m, val: v}
		}
	}
	if math.IsInf(best.val, 1) {
		return HomogeneousSolution{}, ErrInfeasible
	}
	if kn.speed != best.k {
		kn.setSpeed(best.k)
	}
	return kn.solution(best.k, best.m), nil
}

// speedWindow is one speed's share of a Solve: its index and operands and
// the low end of its feasible count window [lo, N]. least reports that its
// search read the least eval over the window off the certified plateau.
type speedWindow struct {
	speedOps
	k, lo int
	least bool
}

// bestSpeed is the best (speed, count, value) of a Solve so far.
type bestSpeed struct {
	k, m int
	val  float64
}

// beats reports whether some window j of ws certifiably beats w: every
// eval of w's speed k over w's window is strictly above j's searched
// answer v_j, so k's search cannot change Solve's answer and need not run.
// Solve asks only when γ ≤ maxCapGamma. For each j it checks, in O(1) and
// without aiming the kernel at k, that j's search read v_j off the
// certified plateau (j.least), that x_j > x_k and c_j ≤ c_k (x and c being
// the speeds' rates and computing power operands), that lo_j ≤ lo_k, that
// k's operands are in certifies' ranges, and that
// M = Wd·λ·(1/x_k − 1/x_j) exceeds 2·E, E being errorBound for k with
// κ ≤ capKappa and hi = N.
//
// Proof. Let F_i be evalError's F with speed i's operands,
// P_i(m) = PUE·(m·p_s + c_i) and D_i(m) = mλ/(m·x_i − λ) = λ/(x_i − λ/m).
// Take m in [lo_k, N]. If m fails k's γ cap, eval_k(m) = +Inf > v_j. If it
// passes, κ_k(m) < capKappa, so m·x_k > λ, m·x_j > λ and k's operands of
// value at m are normal: evalError's per-count bound holds, and with P at
// N and κ at capKappa, eval_k(m) ≥ F_k(m) − E (an infinite delay only
// raises eval_k(m)). j read v_j off its plateau, so its window
// [lo_j, N] ⊇ [lo_k, N] is plain: m passes j's cap too, and
// eval_j(m) ≤ F_j(m) + E, errorBound being monotone. As We, PUE ≥ 0 and
// c_j ≤ c_k, We·[P_k(m) − r]^+ ≥ We·[P_j(m) − r]^+. With t = 1/m,
// D_k − D_j = λ/(x_k − λt) − λ/(x_j − λt) rises in t, its derivative
// λ²/(x_k − λt)² − λ²/(x_j − λt)² being positive where
// 0 < x_k − λt < x_j − λt; so it is at least its value λ·(1/x_k − 1/x_j)
// at t = 0, and F_k(m) − F_j(m) ≥ M. Hence
//
//	eval_k(m) ≥ eval_j(m) + M − 2·E > eval_j(m) ≥ v_j,
//
// the read-off certifying that v_j is the least eval_j over [lo_j, N]
// (see search). numopt.MinimizeInt returns eval at a count of the window,
// so k's search in the all-speeds reference would return a value strictly
// above v_j, which is at least Solve's answer: k neither is that answer
// nor ties it. The test is conservative in floating point: with the
// operands in certifies' ranges no operation of M's under- or overflows,
// so fl(fl(M)·(1 − 2⁻⁴⁰)) < M, and 2·E is exact. Wd = 0 gives M = 0 and
// beats nothing, as E > 0; a switching penalty leaves no window plain, so
// no j reads its answer off.
func (kn *speedKernel) beats(ws []speedWindow, w *speedWindow) bool {
	if len(ws) == 0 || !kn.certifies(&w.speedOps) {
		return false
	}
	e := kn.errorBound(&w.speedOps, capKappa, kn.hp.N)
	for i := range ws {
		j := &ws[i]
		if j.least && j.x > w.x && j.ck <= w.ck && j.lo <= w.lo &&
			kn.wd*(kn.lambda*((j.x-w.x)/(j.x*w.x)))*(1-0x1p-40) > 2*e {
			return true
		}
	}
	return false
}
