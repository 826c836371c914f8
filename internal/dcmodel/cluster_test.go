package dcmodel

import (
	"math"
	"strings"
	"testing"
)

func TestPaperClusterScale(t *testing.T) {
	c := PaperCluster(200)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalServers(); got != 216000 {
		t.Errorf("TotalServers = %d, want 216000", got)
	}
	if len(c.Groups) != 200 {
		t.Errorf("groups = %d, want 200", len(c.Groups))
	}
	// Peak server power ≈ 50 MW (216000 × 231 W = 49.9 MW).
	if got := c.PeakPowerKW(); math.Abs(got-216000*0.231) > 1e-6 {
		t.Errorf("PeakPowerKW = %v, want %v", got, 216000*0.231)
	}
	// Max capacity 2.16M req/s; the paper's peak workload 1.1M is ~50%.
	if got := c.MaxCapacityRPS(); math.Abs(got-2.16e6) > 1e-6 {
		t.Errorf("MaxCapacityRPS = %v, want 2.16e6", got)
	}
}

func TestPaperClusterRemainderGoesToLastGroup(t *testing.T) {
	c := PaperCluster(7) // 216000 / 7 leaves a remainder
	if got := c.TotalServers(); got != 216000 {
		t.Errorf("TotalServers = %d, want 216000", got)
	}
}

func TestPaperClusterDefaultGroups(t *testing.T) {
	if got := len(PaperCluster(0).Groups); got != 200 {
		t.Errorf("default groups = %d, want 200", got)
	}
}

func TestGroupPowerLinearInLoad(t *testing.T) {
	g := Group{Type: Opteron(), N: 100}
	k := 3
	p0 := g.PowerKW(k, 0)
	slope := g.PowerSlopeKWPerRPS(k)
	for _, load := range []float64{0, 10, 100, 500} {
		want := p0 + slope*load
		if got := g.PowerKW(k, load); math.Abs(got-want) > 1e-9 {
			t.Errorf("PowerKW(%v) = %v, want %v", load, got, want)
		}
	}
	if g.PowerKW(0, 0) != 0 {
		t.Error("off group must draw zero power")
	}
	if g.PowerSlopeKWPerRPS(0) != 0 {
		t.Error("off group must have zero slope")
	}
}

func TestGroupDelayCost(t *testing.T) {
	g := Group{Type: Opteron(), N: 10}
	// 10 servers at speed 4 (x=10): aggregate 100 rps. Load 50 → per-server
	// λ=5, d = 10·5/(10−5) = 10.
	if got := g.DelayCost(4, 50); math.Abs(got-10) > 1e-9 {
		t.Errorf("DelayCost = %v, want 10", got)
	}
	if got := g.DelayCost(4, 0); got != 0 {
		t.Errorf("zero-load delay = %v", got)
	}
	if got := g.DelayCost(4, 100); !math.IsInf(got, 1) {
		t.Errorf("at-capacity delay = %v, want +Inf", got)
	}
	if got := g.DelayCost(0, 1); !math.IsInf(got, 1) {
		t.Errorf("off group with load: delay = %v, want +Inf", got)
	}
}

func TestClusterValidateRejectsBadInputs(t *testing.T) {
	good := PaperCluster(2)
	cases := []struct {
		name   string
		mutate func(*Cluster)
	}{
		{"no groups", func(c *Cluster) { c.Groups = nil }},
		{"gamma 0", func(c *Cluster) { c.Gamma = 0 }},
		{"gamma 1", func(c *Cluster) { c.Gamma = 1 }},
		{"pue<1", func(c *Cluster) { c.PUE = 0.5 }},
		{"gamma NaN", func(c *Cluster) { c.Gamma = math.NaN() }},
		{"pue NaN", func(c *Cluster) { c.PUE = math.NaN() }},
		{"pue +Inf", func(c *Cluster) { c.PUE = math.Inf(1) }},
		{"empty group", func(c *Cluster) { c.Groups[0].N = 0 }},
	}
	for _, tc := range cases {
		c := &Cluster{
			Groups: append([]Group(nil), good.Groups...),
			Gamma:  good.Gamma,
			PUE:    good.PUE,
		}
		tc.mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestCheckConfig(t *testing.T) {
	c := PaperCluster(2)
	n := len(c.Groups)
	speeds := make([]int, n)
	load := make([]float64, n)
	speeds[0] = 4
	load[0] = 100
	if err := c.CheckConfig(speeds, load); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Wrong lengths.
	if err := c.CheckConfig(speeds[:1], load); err == nil {
		t.Error("length mismatch accepted")
	}
	// Out-of-range speed.
	bad := append([]int(nil), speeds...)
	bad[0] = 9
	if err := c.CheckConfig(bad, load); err == nil {
		t.Error("bad speed index accepted")
	}
	// Load on an off group exceeds its zero γ-cap.
	l2 := append([]float64(nil), load...)
	l2[1] = 5 // group 1 speed 0
	if err := c.CheckConfig(speeds, l2); err == nil {
		t.Error("load on off group accepted")
	}
	// Load above γ-cap.
	l3 := append([]float64(nil), load...)
	l3[0] = c.Gamma*c.Groups[0].RateAt(4) + 1
	if err := c.CheckConfig(speeds, l3); err == nil {
		t.Error("over-cap load accepted")
	}
	// Negative load.
	l4 := append([]float64(nil), load...)
	l4[0] = -1
	if err := c.CheckConfig(speeds, l4); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative load: err = %v", err)
	}
}

func TestUsableCapacity(t *testing.T) {
	c := PaperCluster(4)
	speeds := []int{4, 4, 0, 0}
	// Two groups of 54000 at 10 rps × γ.
	want := 0.95 * 2 * 54000 * 10
	if got := c.UsableCapacityRPS(speeds); math.Abs(got-want) > 1e-6 {
		t.Errorf("UsableCapacityRPS = %v, want %v", got, want)
	}
}

func TestPUEScalesFacilityPower(t *testing.T) {
	c := PaperCluster(2)
	c.PUE = 1.5
	speeds := []int{4, 4}
	load := []float64{1000, 1000}
	it := c.ITPowerKW(speeds, load)
	if got := c.FacilityPowerKW(speeds, load); math.Abs(got-1.5*it) > 1e-9 {
		t.Errorf("FacilityPowerKW = %v, want %v", got, 1.5*it)
	}
}

func TestHeterogeneousCluster(t *testing.T) {
	c := HeterogeneousCluster(9000, 6)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.TotalServers() != 9000 {
		t.Errorf("TotalServers = %d", c.TotalServers())
	}
	names := map[string]bool{}
	for _, g := range c.Groups {
		names[g.Type.Name] = true
	}
	if len(names) != 3 {
		t.Errorf("expected 3 server generations, got %v", names)
	}
	// The new generation must dominate the old on rate and efficiency.
	var old, new_ *Group
	for i := range c.Groups {
		switch c.Groups[i].Type.Name {
		case "gen-old":
			old = &c.Groups[i]
		case "gen-new":
			new_ = &c.Groups[i]
		}
	}
	if old == nil || new_ == nil {
		t.Fatal("missing generations")
	}
	if new_.Type.MaxRate() <= old.Type.MaxRate() {
		t.Error("gen-new should be faster than gen-old")
	}
	if new_.Type.MaxBusyKW() >= old.Type.MaxBusyKW() {
		t.Error("gen-new should use less power than gen-old")
	}
}
