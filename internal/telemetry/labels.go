package telemetry

import (
	"encoding/binary"
	"io"
	"slices"
	"sync"
)

// Labeled vectors: dimensional instruments keyed by a small label tuple
// (site, endpoint, shard, …). The design goals mirror the flat core:
//
//   - The hot path is allocation-free. With interns its tuple once; the
//     child it returns IS a plain *Counter/*Gauge/*Histogram, so callers
//     that cache the handle (the fleet does, per site) pay exactly the
//     flat-instrument cost per emission. Even an uncached With resolves
//     through a stack key buffer and an allocation-free map lookup.
//   - Each family keeps its series in one RWMutex-guarded map, unstriped:
//     every production With caller either caches its child or resolves
//     it once per request or replay, so the read lock is taken rarely.
//   - Snapshots are deterministic: series are sorted by label values, so
//     two snapshots of the same state render byte-identically (the golden
//     exposition test pins this).
//
// Cardinality is the caller's contract: label values must be drawn from a
// bounded set (site names, endpoint paths, shard ids — never slot numbers
// or request ids), because every distinct tuple allocates a child that
// lives for the registry's lifetime.

type vecEntry[T any] struct {
	values []string // interned copy of the label tuple, lookup key order
	child  *T
}

// desc is a family's identity, fixed at registration.
type desc struct {
	name string   // registry name ("geo.site.cost_usd")
	expo string   // exposition name, promtext.SanitizeName(name)
	help string   // rendered as # HELP when non-empty
	typ  string   // counter | gauge | histogram
	keys []string // label names; none for a flat instrument
}

func (d *desc) describe() *desc { return d }

// rank is the family's exposition group: flat counters, flat gauges,
// labeled counters, labeled gauges, flat histograms, labeled histograms.
func (d *desc) rank() int {
	r := 0
	if d.typ == "histogram" {
		r += 4
	}
	if len(d.keys) > 0 {
		r += 2
	}
	if d.typ == "gauge" {
		r++
	}
	return r
}

// family is one entry of the registry's table: a *LabeledCounter,
// *LabeledGauge or *LabeledHistogram.
type family interface {
	describe() *desc
	snapshotInto(*Snapshot)
	writePrometheus(io.Writer) error
}

// vec is the generic core shared by the three instrument kinds: the
// family's series keyed by appendTupleKey, guarded by one lock.
type vec[T any] struct {
	desc
	newChild func() *T // builds a zero-valued child instrument

	mu sync.RWMutex
	m  map[string]*vecEntry[T]
}

// newVec builds a family's series storage. A flat family's one series,
// the empty tuple, exists from registration, so it renders before its
// first write.
func newVec[T any](d desc, newChild func() *T) vec[T] {
	m := make(map[string]*vecEntry[T])
	if len(d.keys) == 0 {
		m[""] = &vecEntry[T]{child: newChild()}
	}
	return vec[T]{desc: d, newChild: newChild, m: m}
}

// appendTupleKey encodes the label values into dst as a length-prefixed
// byte string — collision-free for any values, unlike a separator join.
func appendTupleKey(dst []byte, values []string) []byte {
	for _, v := range values {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// with resolves (interning on first use) the child for the tuple. The key
// is built in a stack buffer and the read-path map access converts it
// without allocating, so repeat lookups are allocation-free.
func (v *vec[T]) with(values []string) *T {
	if len(values) != len(v.keys) {
		panic("telemetry: " + v.name + ": wrong number of label values")
	}
	var buf [64]byte
	key := appendTupleKey(buf[:0], values)
	v.mu.RLock()
	e := v.m[string(key)]
	v.mu.RUnlock()
	if e != nil {
		return e.child
	}
	return v.create(key, values)
}

// create interns a new tuple under the write lock, rechecking for a
// racing creator so exactly one child exists per tuple.
func (v *vec[T]) create(key []byte, values []string) *T {
	v.mu.Lock()
	defer v.mu.Unlock()
	if e := v.m[string(key)]; e != nil {
		return e.child
	}
	vals := make([]string, len(values))
	copy(vals, values)
	e := &vecEntry[T]{values: vals, child: v.newChild()}
	v.m[string(key)] = e
	return e.child
}

// entries returns every interned (tuple, child) pair sorted by label
// values — the deterministic order every snapshot and exposition uses.
func (v *vec[T]) entries() []*vecEntry[T] {
	v.mu.RLock()
	out := make([]*vecEntry[T], 0, len(v.m))
	for _, e := range v.m {
		out = append(out, e)
	}
	v.mu.RUnlock()
	slices.SortFunc(out, func(a, b *vecEntry[T]) int { return slices.Compare(a.values, b.values) })
	return out
}

// LabeledCounter is a counter vector: one Counter per label tuple.
type LabeledCounter struct {
	vec[Counter]
}

// With returns the counter for the tuple, interning it on first use. The
// returned handle is a plain *Counter; cache it on hot paths.
func (c *LabeledCounter) With(values ...string) *Counter { return c.with(values) }

// LabeledGauge is a gauge vector: one Gauge per label tuple.
type LabeledGauge struct {
	vec[Gauge]
}

// With returns the gauge for the tuple, interning it on first use.
func (g *LabeledGauge) With(values ...string) *Gauge { return g.with(values) }

// LabeledHistogram is a histogram vector: one fixed-layout Histogram per
// label tuple, all sharing the bounds given at construction.
type LabeledHistogram struct {
	vec[Histogram]
}

// With returns the histogram for the tuple, interning it on first use.
func (h *LabeledHistogram) With(values ...string) *Histogram { return h.with(values) }

// LabeledSeries is one tuple's sample in a labeled snapshot.
type LabeledSeries struct {
	Values []string `json:"values"`
	Value  float64  `json:"value"`
}

// LabeledSnapshot is a point-in-time copy of a counter or gauge vector,
// series sorted by label values.
type LabeledSnapshot struct {
	Help   string          `json:"help,omitempty"`
	Labels []string        `json:"labels"`
	Series []LabeledSeries `json:"series"`
}

// LabeledHistogramSeries is one tuple's histogram in a labeled snapshot.
type LabeledHistogramSeries struct {
	Values []string          `json:"values"`
	Hist   HistogramSnapshot `json:"hist"`
}

// LabeledHistogramsSnapshot is a point-in-time copy of a histogram
// vector, series sorted by label values.
type LabeledHistogramsSnapshot struct {
	Help   string                   `json:"help,omitempty"`
	Labels []string                 `json:"labels"`
	Series []LabeledHistogramSeries `json:"series"`
}

// Get returns the histogram snapshot for the tuple, if present.
func (s LabeledHistogramsSnapshot) Get(values ...string) (HistogramSnapshot, bool) {
	for _, ser := range s.Series {
		if slices.Equal(ser.Values, values) {
			return ser.Hist, true
		}
	}
	return HistogramSnapshot{}, false
}

func (c *LabeledCounter) snapshotInto(s *Snapshot) {
	putScalar(s.Counters, s.LabeledCounters, &c.vec, (*Counter).Value)
}

func (g *LabeledGauge) snapshotInto(s *Snapshot) {
	putScalar(s.Gauges, s.LabeledGauges, &g.vec, (*Gauge).Value)
}

// putScalar files a counter or gauge family: a flat family's one series
// under flat, a labeled family's series under labeled.
func putScalar[T any](flat map[string]float64, labeled map[string]LabeledSnapshot, v *vec[T], value func(*T) float64) {
	if len(v.keys) == 0 {
		flat[v.name] = value(v.with(nil))
		return
	}
	ls := LabeledSnapshot{Help: v.help, Labels: v.keys}
	for _, e := range v.entries() {
		ls.Series = append(ls.Series, LabeledSeries{Values: e.values, Value: value(e.child)})
	}
	labeled[v.name] = ls
}

func (h *LabeledHistogram) snapshotInto(s *Snapshot) {
	if len(h.keys) == 0 {
		s.Histograms[h.name] = h.with(nil).Snapshot()
		return
	}
	ls := LabeledHistogramsSnapshot{Help: h.help, Labels: h.keys}
	for _, e := range h.entries() {
		ls.Series = append(ls.Series, LabeledHistogramSeries{Values: e.values, Hist: e.child.Snapshot()})
	}
	s.LabeledHistograms[h.name] = ls
}
