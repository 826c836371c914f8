// Package lyapunov provides the drift-plus-penalty machinery COCA is built
// on (§4, following Neely's stochastic network optimization): the virtual
// carbon-deficit queue of Eq. (17), per-frame resets with frame-varying
// control parameters V_r, and the Theorem 2 bound constants
// B, D and C(T) = B + D(T−1) together with the cost and deficit bounds of
// Eqs. (19)–(20).
package lyapunov

import (
	"errors"
	"fmt"
	"math"
)

// DeficitQueue is the virtual carbon-deficit queue q(t) of Eq. (17):
//
//	q(t+1) = [ q(t) + y(t) − α·f(t) − z ]^+ ,  y(t) = [p(t) − r(t)]^+ ,
//
// where z = α·Z/J is the per-slot REC allowance. Its length measures how
// far cumulative grid-electricity usage has run ahead of the renewable
// budget; COCA adds q(t) to the electricity weight, realizing the
// "if violate neutrality, then use less electricity" feedback. The zero
// value is an empty queue.
type DeficitQueue struct {
	q     float64
	alpha float64
	z     float64
}

// CheckQueueParams reports whether a capping aggressiveness α and an REC
// allowance (a portfolio's Z or a queue's per-slot z) can drive Eq. (17):
// α finite and positive, the allowance finite and non-negative. A NaN or
// infinite one would turn q(t) into NaN within a slot. The error names the
// bad value and carries no package prefix, so each caller adds its own.
func CheckQueueParams(alpha, recKWh float64) error {
	if !(alpha > 0 && alpha <= math.MaxFloat64) {
		return fmt.Errorf("alpha %v must be finite and positive", alpha)
	}
	if !(recKWh >= 0 && recKWh <= math.MaxFloat64) {
		return fmt.Errorf("REC allowance %v must be finite and non-negative", recKWh)
	}
	return nil
}

// NewDeficitQueue returns a queue with capping aggressiveness alpha and
// per-slot REC allowance z (both from the portfolio); it panics unless
// CheckQueueParams accepts them.
func NewDeficitQueue(alpha, recPerSlotKWh float64) *DeficitQueue {
	if err := CheckQueueParams(alpha, recPerSlotKWh); err != nil {
		panic("lyapunov: " + err.Error())
	}
	return &DeficitQueue{alpha: alpha, z: recPerSlotKWh}
}

// Len returns the current queue length q(t).
func (dq *DeficitQueue) Len() float64 { return dq.q }

// Update applies Eq. (17) with this slot's realized grid usage y(t) (kWh)
// and off-site generation f(t) (kWh), returning the new length. Negative
// inputs are clamped to zero (y is a [·]^+ by construction; a negative f
// would be a data error).
func (dq *DeficitQueue) Update(gridKWh, offsiteKWh float64) float64 {
	if gridKWh < 0 {
		gridKWh = 0
	}
	if offsiteKWh < 0 {
		offsiteKWh = 0
	}
	dq.q = math.Max(0, dq.q+gridKWh-dq.alpha*offsiteKWh-dq.z)
	return dq.q
}

// Reset empties the queue (Algorithm 1 lines 2–4: performed at the start of
// every frame so V can be re-tuned without inheriting the previous frame's
// deficit).
func (dq *DeficitQueue) Reset() { dq.q = 0 }

// QueueCheckpointVersion is the current QueueCheckpoint schema version.
const QueueCheckpointVersion = 1

// QueueCheckpoint is the explicit, versioned snapshot of a DeficitQueue:
// the full queue state as a first-class value. It round-trips through JSON
// exactly (encoding/json renders float64 at shortest-round-trip precision),
// so a restored queue continues the Eq. (17) trajectory bit-for-bit.
type QueueCheckpoint struct {
	Version int     `json:"version"`
	Q       float64 `json:"q"`     // current length q(t), kWh
	Alpha   float64 `json:"alpha"` // capping aggressiveness α
	Z       float64 `json:"z"`     // per-slot REC allowance z, kWh
}

// Checkpoint snapshots the queue.
func (dq *DeficitQueue) Checkpoint() QueueCheckpoint {
	return QueueCheckpoint{Version: QueueCheckpointVersion, Q: dq.q, Alpha: dq.alpha, Z: dq.z}
}

// RestoreFrom replaces the queue's state with the snapshot, validating it
// the same way NewDeficitQueue validates fresh parameters.
func (dq *DeficitQueue) RestoreFrom(ck QueueCheckpoint) error {
	if ck.Version != QueueCheckpointVersion {
		return fmt.Errorf("lyapunov: queue checkpoint version %d, want %d", ck.Version, QueueCheckpointVersion)
	}
	if err := CheckQueueParams(ck.Alpha, ck.Z); err != nil {
		return fmt.Errorf("lyapunov: checkpoint %w", err)
	}
	if ck.Q < 0 || math.IsNaN(ck.Q) || math.IsInf(ck.Q, 0) {
		return fmt.Errorf("lyapunov: checkpoint queue length %v must be finite and non-negative", ck.Q)
	}
	dq.q, dq.alpha, dq.z = ck.Q, ck.Alpha, ck.Z
	return nil
}

// VSchedule fixes the frame structure of Algorithm 1: the horizon J is
// split into R frames of T slots (J = R·T) and frame r uses the cost-carbon
// parameter V_r.
type VSchedule struct {
	T  int       // slots per frame
	Vs []float64 // V_r for r = 0..R−1
}

// ConstantV returns a schedule with a single V over R frames of T slots.
func ConstantV(v float64, frames, t int) VSchedule {
	vs := make([]float64, frames)
	for i := range vs {
		vs[i] = v
	}
	return VSchedule{T: t, Vs: vs}
}

// Validate reports whether the schedule covers exactly `slots` slots.
func (s VSchedule) Validate(slots int) error {
	if s.T <= 0 {
		return fmt.Errorf("lyapunov: T = %d must be positive", s.T)
	}
	if len(s.Vs) == 0 {
		return errors.New("lyapunov: empty V schedule")
	}
	if s.T*len(s.Vs) != slots {
		return fmt.Errorf("lyapunov: schedule covers %d slots, horizon is %d", s.T*len(s.Vs), slots)
	}
	for r, v := range s.Vs {
		if v <= 0 || math.IsNaN(v) {
			return fmt.Errorf("lyapunov: V_%d = %v must be positive", r, v)
		}
	}
	return nil
}

// R returns the number of frames.
func (s VSchedule) R() int { return len(s.Vs) }

// Slots returns the covered horizon R·T.
func (s VSchedule) Slots() int { return s.T * len(s.Vs) }

// V returns the control parameter in force at slot t.
func (s VSchedule) V(t int) float64 { return s.Vs[t/s.T] }

// FrameStart reports whether slot t begins a new frame (t = r·T), where the
// deficit queue is reset.
func (s VSchedule) FrameStart(t int) bool { return t%s.T == 0 }

// Bounds carries the environment extremes the Theorem 2 constants are built
// from; all in kWh per slot.
type Bounds struct {
	YMax float64 // max possible grid draw [p − r]^+ per slot (≈ peak facility power)
	ZMax float64 // max of α·f(t) + z per slot
	RMax float64 // max on-site supply r(t) per slot
}

// B returns the drift constant of the proof of Theorem 2:
// B ≥ ½·(y(t) − z(t))² for all t, satisfied by ½·max(YMax, ZMax)².
func (b Bounds) B() float64 {
	m := math.Max(b.YMax, b.ZMax)
	return 0.5 * m * m
}

// D returns the frame-coupling constant: D ≥ ½·q_diff·max{y(t), r(t)} with
// q_diff = max{y(t), z(t)}.
func (b Bounds) D() float64 {
	qdiff := math.Max(b.YMax, b.ZMax)
	return 0.5 * qdiff * math.Max(b.YMax, b.RMax)
}

// C returns C(T) = B + D·(T−1).
func (b Bounds) C(t int) float64 {
	return b.B() + b.D()*float64(t-1)
}

// CostBound evaluates the right side of Theorem 2(b), Eq. (20): the bound
// on COCA's average cost given the per-frame optima G_r* of the T-step
// lookahead benchmark.
func CostBound(b Bounds, s VSchedule, frameOptima []float64) float64 {
	r := float64(s.R())
	var optSum, invVSum float64
	for i, g := range frameOptima {
		optSum += g
		invVSum += 1 / s.Vs[i]
	}
	return optSum/r + b.C(s.T)/r*invVSum
}

// DeficitBound evaluates the "fudge factor" of Theorem 2(a), Eq. (19): the
// bound on COCA's average per-slot budget overrun, given the per-frame
// optima G_r* and the global per-slot minimum cost gMin.
func DeficitBound(b Bounds, s VSchedule, frameOptima []float64, gMin float64) float64 {
	r := float64(s.R())
	var sum float64
	for i, g := range frameOptima {
		sum += math.Sqrt(math.Max(0, b.C(s.T)+s.Vs[i]*(g-gMin)))
	}
	return sum / (r * math.Sqrt(float64(s.T)))
}
