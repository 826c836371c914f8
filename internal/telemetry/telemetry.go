// Package telemetry is the run-time observability layer over the
// Engine/GSD stack: a small metrics core (counters, gauges, histograms
// with a fixed bucket layout behind a registry) plus typed instruments
// for this domain — per-slot cost/grid/deficit/queue series from the sim
// engine's observer hooks, GSD iteration/acceptance/convergence stats,
// and experiment-pool progress. Production carbon-aware schedulers are
// built around exactly this kind of continuously exported power/carbon
// telemetry (Radovanović et al., "Carbon-Aware Computing for
// Datacenters"), and every instrument here doubles as the measurement
// harness later performance work is judged against.
//
// The hot path is allocation-free: counters and gauges are single atomic
// words, histograms take one short mutex-guarded pass over a fixed
// bucket layout. Instruments are created up front (where allocation and
// registry locking happen once) and then written to concurrently.
//
// Every instrument belongs to a metric family in one registry table. A
// labeled family (LabeledCounter, LabeledGauge, LabeledHistogram) keys
// its series by a small label tuple — per-site, per-endpoint, per-shard —
// and a flat instrument ("run.total_usd", from Counter, Gauge or
// Histogram) is simply a family with no labels and exactly one series.
// Both render through one path, as dimensional series in the Prometheus
// exposition (WritePrometheus, mounted at /metrics). Labels must be
// low-cardinality: site names and endpoint paths, never slot indices or
// request ids.
//
// Registration is get-or-create: the same name and kind returns the
// existing family, whose first registration fixed its help, labels and
// bounds. Names are unique by exposition form (dots become underscores),
// so a name already held by another kind ("x.y" as counter and gauge) or
// another spelling ("x.y" and "x_y") panics at registration, and a flat
// and a labeled family of one name panic at the first With (wrong number
// of label values). No exposition can carry a family twice.
//
// /metrics is the one live read-out, and Snapshot the one in-process
// read. Neither touches process-global state: every Registry serves its
// own, and a dropped registry is collected with everything its scrape
// hooks reach.
package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry/promtext"
)

// Counter is a monotonically written accumulator. Add accepts any float
// delta — signed series such as the carbon deficit accumulate through a
// Counter too — so Value reports the running sum, not a strictly
// increasing quantity.
type Counter struct {
	bits atomic.Uint64 // float64 sum
}

// Add accumulates v. It is lock-free and safe for concurrent use. A NaN
// delta is dropped: accumulating it would turn the running sum — and every
// later read — into NaN with no way back, so a poisoned input must not
// destroy the series it feeds.
func (c *Counter) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		cur := math.Float64frombits(old)
		if c.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Inc accumulates 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the running sum.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a last-write-wins instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Add shifts the gauge by delta — the level-style use (in-flight jobs,
// queue occupancy) where concurrent writers increment and decrement. A NaN
// delta is dropped for the same reason as Counter.Add: unlike Set (whose
// last-write-wins NaN heals on the next write), an accumulated NaN is
// permanent.
func (g *Gauge) Add(delta float64) {
	if math.IsNaN(delta) {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Histogram is a fixed-layout distribution: Bounds[i] is the inclusive
// upper edge of bucket i, with one implicit overflow bucket at the end.
// The layout is fixed at construction, so Observe never allocates.
type Histogram struct {
	bounds []float64

	mu      sync.Mutex
	counts  []uint64
	count   uint64
	invalid uint64
	sum     float64
	min     float64
	max     float64
}

// NewHistogram builds a histogram over the given ascending bucket
// bounds. An empty bounds slice yields a single overflow bucket (the
// histogram still tracks count/sum/min/max).
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]uint64, len(b)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// ExpBuckets returns n ascending bounds start, start·factor, … — the
// standard layout for latency- and cost-like long-tailed series.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one sample. A NaN sample is counted as invalid rather
// than bucketed: sort.SearchFloat64s would silently drop it into the
// overflow bucket and sum += NaN would poison Sum/Mean for the rest of the
// run. Invalid observations are visible in the snapshot's Invalid count so
// a producer emitting garbage is detectable, not laundered.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		h.mu.Lock()
		h.invalid++
		h.mu.Unlock()
		return
	}
	// Bucket search outside the lock: bounds are immutable.
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a consistent copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	// Invalid counts NaN observations, which are excluded from every other
	// field (buckets, Count, Sum, Min, Max, Mean).
	Invalid uint64  `json:"invalid,omitempty"`
	Sum     float64 `json:"sum"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
}

// Snapshot copies the histogram state under the lock.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	s := HistogramSnapshot{
		Bounds:  h.bounds,
		Counts:  append([]uint64(nil), h.counts...),
		Count:   h.count,
		Invalid: h.invalid,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
	}
	h.mu.Unlock()
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	} else {
		s.Min, s.Max = 0, 0
	}
	return s
}

// Registry names and owns instruments in one family table. Every family
// is a *LabeledCounter, *LabeledGauge or *LabeledHistogram; a flat
// instrument is a family with no label names and exactly one series.
// Get-or-create methods are mutex-guarded and intended for setup; the
// instruments they return are written to without touching the registry
// again.
type Registry struct {
	mu          sync.Mutex
	families    map[string]family // keyed by exposition name
	scrapeHooks []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]family)}
}

// OnScrape registers a hook that runs at the start of every Snapshot (and
// therefore every exposition scrape), before instrument state is copied.
// Pull-style collectors — the runtime collector, the settle-lag gauge —
// use it to refresh gauges exactly when they are read.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.scrapeHooks = append(r.scrapeHooks, fn)
	r.mu.Unlock()
}

// scrape runs the scrape hooks — outside the registry lock, so a hook may
// itself resolve registry instruments — and returns the family table in
// exposition order: flat counters, flat gauges, labeled counters, labeled
// gauges, flat histograms, labeled histograms, each sorted by name.
func (r *Registry) scrape() []family {
	r.mu.Lock()
	hooks := r.scrapeHooks
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	r.mu.Lock()
	fams := make([]family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool {
		a, b := fams[i].describe(), fams[j].describe()
		if ra, rb := a.rank(), b.rank(); ra != rb {
			return ra < rb
		}
		return a.name < b.name
	})
	return fams
}

// lookup returns the family registered under name, building it from d on
// first use. Later help, labels and bounds are ignored: the first
// registration fixes the shape. A name whose exposition form is already
// held by another kind or another spelling panics, because the two would
// render as two families of one name. A histogram x also renders x_bucket,
// x_sum and x_count samples and an x_invalid counter family, so those names
// are held by x too, whichever of the two registers first.
func lookup[F family](r *Registry, d desc, build func(desc) F) F {
	d.expo = promtext.SanitizeName(d.name)
	d.keys = append([]string(nil), d.keys...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[d.expo]; ok {
		if same, ok := f.(F); ok && f.describe().name == d.name {
			return same
		}
		collide(&d, f.describe(), d.expo)
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count", "_invalid"} {
		if base, ok := strings.CutSuffix(d.expo, suffix); ok {
			if f, ok := r.families[base]; ok && f.describe().typ == "histogram" {
				collide(&d, f.describe(), d.expo)
			}
		}
		if d.typ == "histogram" {
			if f, ok := r.families[d.expo+suffix]; ok {
				collide(&d, f.describe(), d.expo+suffix)
			}
		}
	}
	f := build(d)
	r.families[d.expo] = f
	return f
}

// collide panics: registering d would render expo a second time, beside
// the family old.
func collide(d, old *desc, expo string) {
	panic("telemetry: " + d.typ + " " + d.name + " collides with " + old.typ + " " + old.name + " as " + expo)
}

// Counter returns the named flat counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter { return r.LabeledCounter(name, "").With() }

// Gauge returns the named flat gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return r.LabeledGauge(name, "").With() }

// Histogram returns the named flat histogram, creating it with the given
// bounds on first use (later bounds are ignored — the layout is fixed).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.LabeledHistogram(name, "", bounds).With()
}

// LabeledCounter returns the named counter vector over the given label
// names, creating it on first use (later help/labels are ignored — the
// shape is fixed, exactly like Histogram bounds).
func (r *Registry) LabeledCounter(name, help string, labels ...string) *LabeledCounter {
	return lookup(r, desc{name: name, help: help, typ: "counter", keys: labels}, func(d desc) *LabeledCounter {
		return &LabeledCounter{newVec(d, func() *Counter { return &Counter{} })}
	})
}

// LabeledGauge returns the named gauge vector, creating it on first use.
func (r *Registry) LabeledGauge(name, help string, labels ...string) *LabeledGauge {
	return lookup(r, desc{name: name, help: help, typ: "gauge", keys: labels}, func(d desc) *LabeledGauge {
		return &LabeledGauge{newVec(d, func() *Gauge { return &Gauge{} })}
	})
}

// LabeledHistogram returns the named histogram vector, creating it with
// the given bounds on first use; every child shares the bucket layout.
func (r *Registry) LabeledHistogram(name, help string, bounds []float64, labels ...string) *LabeledHistogram {
	return lookup(r, desc{name: name, help: help, typ: "histogram", keys: labels}, func(d desc) *LabeledHistogram {
		b := append([]float64(nil), bounds...)
		return &LabeledHistogram{newVec(d, func() *Histogram { return NewHistogram(b) })}
	})
}

// Snapshot is a point-in-time copy of every registered instrument,
// marshaled with stable field names so summaries diff cleanly. Flat
// families land in the first three maps, labeled ones in the last three.
type Snapshot struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`

	LabeledCounters   map[string]LabeledSnapshot           `json:"labeled_counters,omitempty"`
	LabeledGauges     map[string]LabeledSnapshot           `json:"labeled_gauges,omitempty"`
	LabeledHistograms map[string]LabeledHistogramsSnapshot `json:"labeled_histograms,omitempty"`
}

// Snapshot copies the registry's current state, running the scrape hooks
// first so pull-style collectors are fresh.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:          make(map[string]float64),
		Gauges:            make(map[string]float64),
		Histograms:        make(map[string]HistogramSnapshot),
		LabeledCounters:   make(map[string]LabeledSnapshot),
		LabeledGauges:     make(map[string]LabeledSnapshot),
		LabeledHistograms: make(map[string]LabeledHistogramsSnapshot),
	}
	for _, f := range r.scrape() {
		f.snapshotInto(&s)
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON — the final
// telemetry summary cocasim drops next to its benchmark report.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
