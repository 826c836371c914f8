package lyapunov

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/stats"
)

// TestQueueCheckpointRoundTripProperty is the satellite property test:
// drive a queue through a random charge/settle prefix, snapshot it through
// an actual JSON encode/decode, restore into a fresh queue, and require the
// two to produce bit-identical trajectories on a shared random suffix.
func TestQueueCheckpointRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(42)
	for trial := 0; trial < 200; trial++ {
		alpha := rng.Uniform(0.1, 3)
		z := rng.Uniform(0, 50)
		dq := NewDeficitQueue(alpha, z)

		prefix := rng.IntN(200)
		for i := 0; i < prefix; i++ {
			if rng.Float64() < 0.05 {
				dq.Reset()
				continue
			}
			dq.Update(rng.Uniform(0, 500), rng.Uniform(0, 200))
		}

		blob, err := json.Marshal(dq.Checkpoint())
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		var ck QueueCheckpoint
		if err := json.Unmarshal(blob, &ck); err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		restored := NewDeficitQueue(1, 0) // parameters overwritten by the restore
		if err := restored.RestoreFrom(ck); err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
		if restored.Len() != dq.Len() {
			t.Fatalf("trial %d: restored length %v, want %v", trial, restored.Len(), dq.Len())
		}

		suffix := 1 + rng.IntN(200)
		for i := 0; i < suffix; i++ {
			if rng.Float64() < 0.05 {
				dq.Reset()
				restored.Reset()
				continue
			}
			grid, offsite := rng.Uniform(-10, 500), rng.Uniform(-10, 200)
			a, b := dq.Update(grid, offsite), restored.Update(grid, offsite)
			if a != b {
				t.Fatalf("trial %d: trajectories diverge at suffix step %d: %v vs %v (grid %v offsite %v)",
					trial, i, a, b, grid, offsite)
			}
		}
	}
}

func TestQueueCheckpointRejectsInvalid(t *testing.T) {
	valid := NewDeficitQueue(1.5, 2).Checkpoint()
	cases := map[string]func(*QueueCheckpoint){
		"version":    func(ck *QueueCheckpoint) { ck.Version = 99 },
		"alpha-zero": func(ck *QueueCheckpoint) { ck.Alpha = 0 },
		"alpha-nan":  func(ck *QueueCheckpoint) { ck.Alpha = math.NaN() },
		"alpha-inf":  func(ck *QueueCheckpoint) { ck.Alpha = math.Inf(1) },
		"z-negative": func(ck *QueueCheckpoint) { ck.Z = -1 },
		"z-nan":      func(ck *QueueCheckpoint) { ck.Z = math.NaN() },
		"z-inf":      func(ck *QueueCheckpoint) { ck.Z = math.Inf(1) },
		"q-negative": func(ck *QueueCheckpoint) { ck.Q = -0.5 },
		"q-inf":      func(ck *QueueCheckpoint) { ck.Q = math.Inf(1) },
	}
	for name, mutate := range cases {
		ck := valid
		mutate(&ck)
		dq := NewDeficitQueue(1, 0)
		if err := dq.RestoreFrom(ck); err == nil {
			t.Errorf("%s: RestoreFrom accepted an invalid checkpoint", name)
		}
	}
	// A valid snapshot must restore cleanly.
	dq := NewDeficitQueue(1, 0)
	if err := dq.RestoreFrom(valid); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	if got := dq.Checkpoint(); got != valid {
		t.Fatalf("checkpoint after restore = %+v, want %+v", got, valid)
	}
}
