package core

// Checkpoint/restore of controller state: the group-level Controller
// exposes its cross-slot state — deficit queue, switching-cost anchor,
// slot cursor, and the P3 solver's evolved state — as an explicit,
// versioned snapshot value with exact JSON round-trips, so a controller
// interrupted mid-year can be restarted and continue bit-for-bit.

import (
	"encoding/json"
	"fmt"
	"math"

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
	if ck.Version != ControllerCheckpointVersion {
		return fmt.Errorf("core: controller checkpoint version %d, want %d", ck.Version, ControllerCheckpointVersion)
	}
	if fleet := c.Cluster.TotalServers(); ck.PrevActive < 0 || ck.PrevActive > fleet {
		return fmt.Errorf("%w: controller checkpoint has %d, fleet %d", ErrActiveOutsideFleet, ck.PrevActive, fleet)
	}
	own := c.queue.Checkpoint()
	if math.Float64bits(ck.Queue.Alpha) != math.Float64bits(own.Alpha) || math.Float64bits(ck.Queue.Z) != math.Float64bits(own.Z) {
		return fmt.Errorf("core: controller checkpoint queue has alpha %v, z %v; this controller runs alpha %v, z %v",
			ck.Queue.Alpha, ck.Queue.Z, own.Alpha, own.Z)
	}
	queue := *c.queue
	if err := queue.RestoreFrom(ck.Queue); err != nil {
		return err
	}
	if len(ck.Solver) > 0 {
		ss, ok := c.Solver.(SolverState)
		if !ok {
			return fmt.Errorf("core: checkpoint carries solver state but solver %T cannot restore it", c.Solver)
		}
		if err := ss.RestoreState(ck.Solver); err != nil {
			return err
		}
	}
	*c.queue = queue
	c.prevActive = ck.PrevActive
	c.slot = ck.Slot
	c.gauge()
	return nil
}
