package experiments

import (
	"io"
	"testing"
)

func TestLookaheadSweepMonotone(t *testing.T) {
	cfg := smallConfig()
	cfg.Out = io.Discard
	points, cocaCost, err := LookaheadSweep(cfg, []int{24, 56, 168, 336})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 3 {
		t.Fatalf("too few valid windows: %d", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].MeanFrameG > points[i-1].MeanFrameG*(1+1e-6) {
			t.Errorf("mean G_r* increased with T: %v → %v at T=%d",
				points[i-1].MeanFrameG, points[i].MeanFrameG, points[i].T)
		}
	}
	// Theorem 2: COCA's measured cost below each bound.
	for _, p := range points {
		if cocaCost > p.CostBound {
			t.Errorf("T=%d: measured %v above the Eq. (20) bound %v", p.T, cocaCost, p.CostBound)
		}
	}
}

func TestFrameResetAblation(t *testing.T) {
	cfg := smallConfig()
	cfg.Out = io.Discard
	res, err := FrameResetAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithResets.Slots == 0 || res.WithoutResets.Slots == 0 {
		t.Fatal("ablation did not run")
	}
	// Without resets, deficit accumulated under the early tiny V keeps
	// throttling later frames: usage can only be lower or equal.
	if res.WithoutResets.TotalGridKWh > res.WithResets.TotalGridKWh*(1+1e-6) {
		t.Errorf("never-reset used more energy (%v) than with resets (%v)",
			res.WithoutResets.TotalGridKWh, res.WithResets.TotalGridKWh)
	}
}
