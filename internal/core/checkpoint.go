package core

// Checkpoint/restore of controller state: both COCA forms (the sim-engine
// Policy and the group-level Controller) expose their cross-slot state —
// deficit queue, switching-cost anchor, slot cursor, and the P3 solver's
// evolved state — as explicit, versioned snapshot values with exact JSON
// round-trips, so a controller interrupted mid-year can be restarted and
// continue bit-for-bit.

import (
	"encoding/json"
	"fmt"

	"repro/internal/lyapunov"
)

// SolverState is the optional checkpoint surface of a P3 solver. Solvers
// that evolve cross-slot state (gsd.Solver: the advancing seed and the
// warm-start vector) implement it so Controller checkpoints can carry that
// state opaquely; stateless solvers simply don't, and the controller
// checkpoint omits the solver blob.
type SolverState interface {
	// CheckpointState returns the solver's evolved state as JSON.
	CheckpointState() ([]byte, error)
	// RestoreState replaces the solver's evolved state from JSON.
	RestoreState([]byte) error
}

// ControllerCheckpointVersion is the current ControllerCheckpoint schema
// version.
const ControllerCheckpointVersion = 1

// ControllerCheckpoint is the versioned snapshot of a Controller: the slot
// cursor, the settled switching-cost anchor, the deficit queue, and (when
// the plugged solver implements SolverState) the solver's evolved state.
// Snapshots are taken between slots — after Settle, before the next Step —
// so there is no pending speculative state to capture.
type ControllerCheckpoint struct {
	Version    int                      `json:"version"`
	Slot       int                      `json:"slot"`
	PrevActive int                      `json:"prev_active"`
	Queue      lyapunov.QueueCheckpoint `json:"queue"`
	Solver     json.RawMessage          `json:"solver,omitempty"`
}

// Checkpoint snapshots the controller's cross-slot state.
func (c *Controller) Checkpoint() (ControllerCheckpoint, error) {
	ck := ControllerCheckpoint{
		Version:    ControllerCheckpointVersion,
		Slot:       c.slot,
		PrevActive: c.prevActive,
		Queue:      c.queue.Checkpoint(),
	}
	if ss, ok := c.Solver.(SolverState); ok {
		blob, err := ss.CheckpointState()
		if err != nil {
			return ControllerCheckpoint{}, fmt.Errorf("core: solver checkpoint: %w", err)
		}
		ck.Solver = blob
	}
	return ck, nil
}

// RestoreFrom replaces the controller's cross-slot state with the
// snapshot. The cluster, schedule and solver configuration are not part of
// the snapshot — the caller must rebuild the controller with the same
// construction parameters, then restore; a snapshot whose queue α or z
// differs from the controller's, or that carries solver state for a solver
// that cannot accept it, is an error rather than a silent divergence. A
// refused snapshot leaves the controller's own state untouched.
func (c *Controller) RestoreFrom(ck ControllerCheckpoint) error {
	if ck.Slot < 0 {
		return fmt.Errorf("core: controller checkpoint slot %d is negative", ck.Slot)
	}
	return c.restore("controller", ck.Version, ControllerCheckpointVersion, ck.Queue, ck.PrevActive, c.Cluster.TotalServers(), func() error {
		if len(ck.Solver) > 0 {
			ss, ok := c.Solver.(SolverState)
			if !ok {
				return fmt.Errorf("core: checkpoint carries solver state but solver %T cannot restore it", c.Solver)
			}
			if err := ss.RestoreState(ck.Solver); err != nil {
				return err
			}
		}
		c.slot = ck.Slot
		return nil
	})
}

// PolicyCheckpointVersion is the current PolicyCheckpoint schema version.
const PolicyCheckpointVersion = 1

// PolicyCheckpoint is the versioned snapshot of the sim-engine COCA
// policy's cross-slot state: the deficit queue and the settled
// switching-cost anchor. Snapshots are taken at slot boundaries (after
// Observe), where the speculative pendingActive has been committed, so the
// anchor alone reproduces the policy's state. Tracing knobs (SetV, the
// queue gauge) are configuration, not state, and are left to the
// caller to re-apply.
type PolicyCheckpoint struct {
	Version    int                      `json:"version"`
	Queue      lyapunov.QueueCheckpoint `json:"queue"`
	PrevActive int                      `json:"prev_active"`
}

// Checkpoint snapshots the policy's cross-slot state.
func (p *Policy) Checkpoint() PolicyCheckpoint {
	return PolicyCheckpoint{
		Version:    PolicyCheckpointVersion,
		Queue:      p.queue.Checkpoint(),
		PrevActive: p.prevActive,
	}
}

// RestoreFrom replaces the policy's cross-slot state with the snapshot,
// refusing one whose queue α or z differs from the policy's.
func (p *Policy) RestoreFrom(ck PolicyCheckpoint) error {
	return p.restore("policy", ck.Version, PolicyCheckpointVersion, ck.Queue, ck.PrevActive, p.sc.N, func() error {
		p.pendingActive = ck.PrevActive
		return nil
	})
}
