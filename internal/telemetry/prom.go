package telemetry

import (
	"io"
	"runtime"

	"repro/internal/telemetry/promtext"
)

// Prometheus text-format exposition (version 0.0.4) over the registry —
// the /metrics surface scrapers consume. No external client library: the
// renderer walks the family table once, in scrape order, and emits each
// family through promtext, so two scrapes of identical state are
// byte-identical (the golden exposition test pins the exact output). A
// flat instrument is a family with no labels and renders the same way:
//
//   - counters and gauges → one sample per tuple, sorted by values, name
//     sanitized (dots → _)
//   - histograms → cumulative name_bucket{le="…"} series ending in
//     le="+Inf", plus name_sum and name_count, plus a name_invalid counter
//     family surfacing NaN observations (NaN samples are excluded from
//     buckets/sum/count, so without this series a producer emitting
//     garbage would be invisible to a scraper)

// WritePrometheus renders the registry in Prometheus text format. Scrape
// hooks run first, so pull-style collectors are fresh.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.scrape() {
		if err := f.writePrometheus(w); err != nil {
			return err
		}
	}
	return nil
}

func (c *LabeledCounter) writePrometheus(w io.Writer) error {
	return writeScalar(w, &c.vec, (*Counter).Value)
}

func (g *LabeledGauge) writePrometheus(w io.Writer) error {
	return writeScalar(w, &g.vec, (*Gauge).Value)
}

// writeScalar renders one counter or gauge family.
func writeScalar[T any](w io.Writer, v *vec[T], value func(*T) float64) error {
	if err := promtext.WriteHeader(w, v.expo, v.help, v.typ); err != nil {
		return err
	}
	for _, e := range v.entries() {
		if err := promtext.WriteSample(w, v.expo, tupleLabels(v.keys, e.values, ""), value(e.child)); err != nil {
			return err
		}
	}
	return nil
}

// writePrometheus renders the histogram family, then its per-tuple
// invalid counters as one trailing counter family.
func (h *LabeledHistogram) writePrometheus(w io.Writer) error {
	if err := promtext.WriteHeader(w, h.expo, h.help, h.typ); err != nil {
		return err
	}
	entries := h.entries()
	invalid := make([]uint64, len(entries))
	for i, e := range entries {
		hs := e.child.Snapshot()
		invalid[i] = hs.Invalid
		if err := writeHistogramSeries(w, h.expo, h.keys, e.values, hs); err != nil {
			return err
		}
	}
	if err := promtext.WriteHeader(w, h.expo+"_invalid", "", "counter"); err != nil {
		return err
	}
	for i, e := range entries {
		if err := promtext.WriteSample(w, h.expo+"_invalid", tupleLabels(h.keys, e.values, ""), float64(invalid[i])); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogramSeries renders one tuple's cumulative buckets, sum and
// count.
func writeHistogramSeries(w io.Writer, name string, labelNames, values []string, h HistogramSnapshot) error {
	cum := uint64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		le := promtext.FormatValue(b)
		if err := promtext.WriteSample(w, name+"_bucket", tupleLabels(labelNames, values, le), float64(cum)); err != nil {
			return err
		}
	}
	// The implicit overflow bucket: cumulative count over everything.
	if err := promtext.WriteSample(w, name+"_bucket", tupleLabels(labelNames, values, "+Inf"), float64(h.Count)); err != nil {
		return err
	}
	if err := promtext.WriteSample(w, name+"_sum", tupleLabels(labelNames, values, ""), h.Sum); err != nil {
		return err
	}
	return promtext.WriteSample(w, name+"_count", tupleLabels(labelNames, values, ""), float64(h.Count))
}

// tupleLabels builds the label pairs for one series; a non-empty le is
// appended last, the bucket convention.
func tupleLabels(names, values []string, le string) []promtext.Label {
	if len(names) == 0 && le == "" {
		return nil
	}
	out := make([]promtext.Label, 0, len(names)+1)
	for i := range names {
		out = append(out, promtext.Label{Name: names[i], Value: values[i]})
	}
	if le != "" {
		out = append(out, promtext.Label{Name: "le", Value: le})
	}
	return out
}

// RuntimeMetrics is the process collector: Go runtime health gauges
// refreshed on every scrape through the registry's OnScrape hook, so a
// daemon's /metrics carries goroutine counts, heap occupancy and GC pause
// totals next to the controller series without any background poller.
type RuntimeMetrics struct {
	Goroutines          *Gauge // runtime.NumGoroutine
	HeapAllocBytes      *Gauge // live heap objects
	HeapSysBytes        *Gauge // heap memory obtained from the OS
	HeapObjects         *Gauge
	StackSysBytes       *Gauge
	GCRuns              *Gauge // completed GC cycles
	GCPauseTotalSeconds *Gauge // cumulative stop-the-world pause
	NextGCBytes         *Gauge // heap size that triggers the next cycle
}

// NewRuntimeMetrics registers the process collector under prefix
// (conventionally "runtime") and hooks it into the registry's scrape
// path.
func NewRuntimeMetrics(r *Registry, prefix string) *RuntimeMetrics {
	p := prefix + "."
	m := &RuntimeMetrics{
		Goroutines:          r.Gauge(p + "goroutines"),
		HeapAllocBytes:      r.Gauge(p + "heap_alloc_bytes"),
		HeapSysBytes:        r.Gauge(p + "heap_sys_bytes"),
		HeapObjects:         r.Gauge(p + "heap_objects"),
		StackSysBytes:       r.Gauge(p + "stack_sys_bytes"),
		GCRuns:              r.Gauge(p + "gc_runs"),
		GCPauseTotalSeconds: r.Gauge(p + "gc_pause_total_seconds"),
		NextGCBytes:         r.Gauge(p + "next_gc_bytes"),
	}
	r.OnScrape(m.Collect)
	return m
}

// Collect refreshes the gauges from the runtime. It is also callable
// directly (the scrape hook does exactly this).
func (m *RuntimeMetrics) Collect() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.Goroutines.Set(float64(runtime.NumGoroutine()))
	m.HeapAllocBytes.Set(float64(ms.HeapAlloc))
	m.HeapSysBytes.Set(float64(ms.HeapSys))
	m.HeapObjects.Set(float64(ms.HeapObjects))
	m.StackSysBytes.Set(float64(ms.StackSys))
	m.GCRuns.Set(float64(ms.NumGC))
	m.GCPauseTotalSeconds.Set(float64(ms.PauseTotalNs) / 1e9)
	m.NextGCBytes.Set(float64(ms.NextGC))
}
