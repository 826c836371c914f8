package dcmodel

import (
	"encoding/binary"
	"math"
)

// ClusterArrays is the struct-of-arrays view of a cluster's per-group
// constants: server counts, static powers and the per-(group, speed)
// service rates and power slopes flattened into parallel slices indexed
// g·Stride + k. Hot solvers (the load-balance instance rebuilds one group
// per Gibbs proposal, ten thousand times per slot at fleet scale) read
// these flat arrays instead of pointer-chasing Groups[g].Type.Levels, so
// the inner loops stay cache-linear however many groups the cluster has.
//
// Every stored value is computed by exactly the method the AoS path used
// (RateAt, PowerSlopeKWPerRPS), so reads reproduce the historical
// arithmetic bit for bit.
type ClusterArrays struct {
	Stride int // max NumSpeeds+1 across groups: the per-group row width

	N         []float64 // per group: float64(n_g)
	StaticKW  []float64 // per group: the type's idle power p_s
	NumSpeeds []int     // per group: K_g, the number of positive levels

	// Shape is each group's shape id: two groups share one exactly when
	// they have equal N and server types with bit-identical StaticKW and
	// per-level RateRPS and BusyKW, so at equal speed every per-group
	// constant the load split and the objective derive from them (rate and
	// slope rows, RateAt, PowerKW and DelayCost operands) is bit-identical
	// too. Ids are dense, in first-appearance order; Shapes is their count.
	Shape  []int32
	Shapes int

	rates  []float64 // [g·Stride + k] = Groups[g].RateAt(k)
	slopes []float64 // [g·Stride + k] = Groups[g].PowerSlopeKWPerRPS(k)
}

// NewClusterArrays flattens the cluster's per-group constants. The view is
// immutable and independent of the cluster afterwards; rebuild it when the
// cluster's groups change.
func NewClusterArrays(c *Cluster) *ClusterArrays {
	n := len(c.Groups)
	stride := 1
	for g := range c.Groups {
		if k := c.Groups[g].Type.NumSpeeds() + 1; k > stride {
			stride = k
		}
	}
	a := &ClusterArrays{
		Stride:    stride,
		N:         make([]float64, n),
		StaticKW:  make([]float64, n),
		NumSpeeds: make([]int, n),
		Shape:     make([]int32, n),
		rates:     make([]float64, n*stride),
		slopes:    make([]float64, n*stride),
	}
	for g := range c.Groups {
		grp := &c.Groups[g]
		a.N[g] = float64(grp.N)
		a.StaticKW[g] = grp.Type.StaticKW
		a.NumSpeeds[g] = grp.Type.NumSpeeds()
		for k := 1; k <= a.NumSpeeds[g]; k++ {
			a.rates[g*stride+k] = grp.RateAt(k)
			a.slopes[g*stride+k] = grp.PowerSlopeKWPerRPS(k)
		}
	}
	a.assignShapes(c)
	return a
}

// assignShapes fills Shape and Shapes, keying each group on the bits of its
// N, its type's StaticKW and its type's per-level RateRPS and BusyKW (the
// level count is part of the key's length).
func (a *ClusterArrays) assignShapes(c *Cluster) {
	ids := make(map[string]int32)
	key := make([]byte, 0, 8*(2+2*a.Stride))
	for g := range c.Groups {
		typ := &c.Groups[g].Type
		key = binary.LittleEndian.AppendUint64(key[:0], math.Float64bits(a.N[g]))
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(typ.StaticKW))
		for _, l := range typ.Levels {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(l.RateRPS))
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(l.BusyKW))
		}
		id, ok := ids[string(key)]
		if !ok {
			id = int32(len(ids))
			ids[string(key)] = id
		}
		a.Shape[g] = id
	}
	a.Shapes = len(ids)
}

// Arrays returns the cluster's struct-of-arrays view, building and caching
// it on first use (concurrent first calls race benignly: every builder
// produces identical contents and one wins the cache). The view snapshots
// Groups at build time; a cluster whose Groups change afterwards must be
// treated as a new cluster (build a fresh view with NewClusterArrays) —
// every cluster in this repository is immutable once constructed.
func (c *Cluster) Arrays() *ClusterArrays {
	if a := c.arrays.Load(); a != nil {
		return a
	}
	a := NewClusterArrays(c)
	if c.arrays.CompareAndSwap(nil, a) {
		return a
	}
	return c.arrays.Load()
}

// Rate returns Groups[g].RateAt(k) from the flat layout (0 at speed 0).
func (a *ClusterArrays) Rate(g, k int) float64 { return a.rates[g*a.Stride+k] }

// Slope returns Groups[g].PowerSlopeKWPerRPS(k) from the flat layout
// (0 at speed 0).
func (a *ClusterArrays) Slope(g, k int) float64 { return a.slopes[g*a.Stride+k] }
