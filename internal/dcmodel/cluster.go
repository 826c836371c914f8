package dcmodel

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Group is a batch of N identical servers that share one speed decision, the
// paper's §4.2 complexity reduction ("changing speed selections for a whole
// group of (homogeneous) servers in batch"). Load assigned to a group is
// split equally across its servers, which is optimal by symmetry and
// convexity of the per-server cost.
type Group struct {
	Type ServerType
	N    int
}

// Validate reports whether the group is well formed.
func (g *Group) Validate() error {
	if g.N <= 0 {
		return fmt.Errorf("dcmodel: group of %q has %d servers", g.Type.Name, g.N)
	}
	return g.Type.Validate()
}

// RateAt returns the aggregate service rate n·x_k of the group at speed
// index k.
func (g *Group) RateAt(k int) float64 { return float64(g.N) * g.Type.Rate(k) }

// PowerKW returns the aggregate group power with total group load L at speed
// index k: n·p_s + p_c(x_k)·L/x_k (linear in L; see Eq. (1) summed over the
// group's servers under an equal split).
func (g *Group) PowerKW(k int, load float64) float64 {
	if k == 0 {
		return 0
	}
	return float64(g.N)*g.Type.StaticKW + g.Type.ComputingKW(k)*load/g.Type.Rate(k)
}

// PowerSlopeKWPerRPS returns a = p_c(x_k)/x_k, the marginal power per unit of
// load at speed k. Zero at speed 0.
func (g *Group) PowerSlopeKWPerRPS(k int) float64 {
	if k == 0 {
		return 0
	}
	return g.Type.ComputingKW(k) / g.Type.Rate(k)
}

// DelayCost returns the group's total M/G/1/PS delay cost of Eq. (4):
// n·λs/(x − λs) with λs = L/n, i.e. n·L/(n·x − L). It returns +Inf when the
// load reaches or exceeds the group's aggregate rate.
func (g *Group) DelayCost(k int, load float64) float64 {
	if load <= 0 {
		return 0
	}
	if k == 0 {
		return math.Inf(1)
	}
	agg := g.RateAt(k)
	if load >= agg {
		return math.Inf(1)
	}
	return float64(g.N) * load / (agg - load)
}

// Cluster is the data center: a set of server groups plus the global
// utilization cap γ of Eq. (7) and a PUE factor multiplying IT power into
// facility power (§2.1, footnote 1).
type Cluster struct {
	Groups []Group
	Gamma  float64 // γ ∈ (0,1): per-server max utilization
	PUE    float64 // ≥ 1; 1 = IT power only (the paper's default)

	// arrays caches the struct-of-arrays view of Groups; see Arrays.
	arrays atomic.Pointer[ClusterArrays]
}

// Validate reports whether the cluster is well formed.
func (c *Cluster) Validate() error {
	if len(c.Groups) == 0 {
		return fmt.Errorf("dcmodel: cluster has no groups")
	}
	// Negated so that NaN, which fails every comparison, is rejected.
	if !(c.Gamma > 0 && c.Gamma < 1) {
		return fmt.Errorf("dcmodel: gamma %v outside (0,1)", c.Gamma)
	}
	if !(c.PUE >= 1) || math.IsInf(c.PUE, 1) {
		return fmt.Errorf("dcmodel: PUE %v not a finite value of at least 1", c.PUE)
	}
	for i := range c.Groups {
		if err := c.Groups[i].Validate(); err != nil {
			return fmt.Errorf("group %d: %w", i, err)
		}
	}
	return nil
}

// TotalServers returns the number of servers in the cluster.
func (c *Cluster) TotalServers() int {
	n := 0
	for i := range c.Groups {
		n += c.Groups[i].N
	}
	return n
}

// MaxCapacityRPS returns the aggregate service rate with every server at its
// top speed (not discounted by γ).
func (c *Cluster) MaxCapacityRPS() float64 {
	var s float64
	for i := range c.Groups {
		s += float64(c.Groups[i].N) * c.Groups[i].Type.MaxRate()
	}
	return s
}

// PeakPowerKW returns the facility power with every server busy at top speed.
func (c *Cluster) PeakPowerKW() float64 {
	var s float64
	for i := range c.Groups {
		s += float64(c.Groups[i].N) * c.Groups[i].Type.MaxBusyKW()
	}
	return s * c.PUE
}

// UsableCapacityRPS returns Σ_g γ·n_g·x_g(k_g) for the given speed vector:
// the largest total load the configuration can legally carry under Eq. (7).
func (c *Cluster) UsableCapacityRPS(speeds []int) float64 {
	var s float64
	for g := range c.Groups {
		s += c.Groups[g].RateAt(speeds[g])
	}
	return s * c.Gamma
}

// CheckConfig validates a (speeds, load) pair against Eqs. (7)–(9): index
// ranges, non-negative loads, per-group γ caps, and zero load on off groups.
// It does NOT check Σ load = λ; callers that need Eq. (8) verify it
// themselves because solvers operate on partial assignments.
func (c *Cluster) CheckConfig(speeds []int, load []float64) error {
	if len(speeds) != len(c.Groups) || len(load) != len(c.Groups) {
		return fmt.Errorf("%w: got %d speeds, %d loads for %d groups",
			ErrBadConfig, len(speeds), len(load), len(c.Groups))
	}
	for g := range c.Groups {
		k := speeds[g]
		if k < 0 || k > c.Groups[g].Type.NumSpeeds() {
			return fmt.Errorf("%w: group %d speed index %d out of range", ErrBadConfig, g, k)
		}
		if load[g] < -1e-9 || math.IsNaN(load[g]) {
			return fmt.Errorf("%w: group %d load %v negative", ErrBadConfig, g, load[g])
		}
		cap := c.Gamma * c.Groups[g].RateAt(k)
		if load[g] > cap*(1+1e-9)+1e-9 {
			return fmt.Errorf("%w: group %d load %v exceeds γ-cap %v", ErrBadConfig, g, load[g], cap)
		}
	}
	return nil
}

// ITPowerKW returns the total server power Σ p_i of Eq. (2) for the given
// configuration, before the PUE multiplier.
func (c *Cluster) ITPowerKW(speeds []int, load []float64) float64 {
	var s float64
	for g := range c.Groups {
		s += c.Groups[g].PowerKW(speeds[g], load[g])
	}
	return s
}

// FacilityPowerKW returns PUE·ITPower, the p(λ, x) used in the electricity
// cost Eq. (3) and the carbon constraint Eq. (10).
func (c *Cluster) FacilityPowerKW(speeds []int, load []float64) float64 {
	return c.PUE * c.ITPowerKW(speeds, load)
}

// DelayCost returns the total delay cost d of Eq. (4) for the configuration.
func (c *Cluster) DelayCost(speeds []int, load []float64) float64 {
	var s float64
	for g := range c.Groups {
		s += c.Groups[g].DelayCost(speeds[g], load[g])
	}
	return s
}

// PaperCluster returns the paper's §5.1 deployment: 216,000 Opteron servers
// (peak server power ≈ 50 MW) arranged into the given number of equal
// homogeneous groups (the paper's GSD experiments use 200), γ = 0.95 and
// PUE = 1 (the paper models server power only).
func PaperCluster(numGroups int) *Cluster {
	const totalServers = 216000
	if numGroups <= 0 {
		numGroups = 200
	}
	per := totalServers / numGroups
	groups := make([]Group, numGroups)
	st := Opteron()
	for i := range groups {
		groups[i] = Group{Type: st, N: per}
	}
	// Put the rounding remainder into the last group so the fleet size is
	// exact.
	groups[numGroups-1].N += totalServers - per*numGroups
	return &Cluster{Groups: groups, Gamma: 0.95, PUE: 1}
}

// HeterogeneousCluster returns a fleet mixing generations of hardware: the
// paper motivates heterogeneity by "different purchase dates" (§2.1). It
// scales the Opteron profile into older (slower, less efficient) and newer
// (faster, more efficient) types, split across numGroups groups in
// round-robin, with totalServers servers overall.
func HeterogeneousCluster(totalServers, numGroups int) *Cluster {
	base := Opteron()
	scale := func(name string, rate, power, static float64) ServerType {
		st := ServerType{Name: name, StaticKW: base.StaticKW * static}
		for _, l := range base.Levels {
			st.Levels = append(st.Levels, SpeedLevel{
				FreqGHz: l.FreqGHz,
				BusyKW:  st.StaticKW + (l.BusyKW-base.StaticKW)*power,
				RateRPS: l.RateRPS * rate,
			})
		}
		return st
	}
	types := []ServerType{
		scale("gen-old", 0.7, 1.1, 1.25), // slow and power-hungry
		base,                             // the measured Opteron
		scale("gen-new", 1.4, 0.9, 0.8),  // fast and efficient
	}
	if numGroups <= 0 {
		numGroups = len(types)
	}
	per := totalServers / numGroups
	groups := make([]Group, numGroups)
	for i := range groups {
		groups[i] = Group{Type: types[i%len(types)], N: per}
	}
	groups[numGroups-1].N += totalServers - per*numGroups
	return &Cluster{Groups: groups, Gamma: 0.95, PUE: 1}
}
