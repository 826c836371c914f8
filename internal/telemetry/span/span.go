// Package span is the span-tracing half of the observability layer: where
// package telemetry answers *how much* (counters, gauges, histograms),
// span answers *where the time and cost go inside a slot* — a GSD solve
// between StartSolve and FinishSolve, the greedy site allocation inside a
// geo step.
//
// NOTE ON NAMING — this package is repro/internal/telemetry/span, NOT
// repro/internal/trace: package trace is the *time-series* trace package
// (synthetic workload/price/renewable hourly series, the paper's λ(t),
// w(t), r(t)); this package records *execution* spans in the Chrome
// trace-event sense. The two never overlap: trace feeds the simulation,
// span observes it.
//
// The recorder is allocation-conscious and concurrency-safe: a nil
// *Tracer (tracing disabled) short-circuits every call site behind a
// single pointer test, so the engine hot path is untouched and golden
// parity stays bit-for-bit. An enabled tracer records spans into a
// mutex-guarded buffer capped at a configurable limit (overflow is
// counted, never grown into).
//
// Parenting is ambient: Start nests the new span under the innermost
// span still open on the tracer, which makes cross-package nesting work
// without threading parents through interfaces — the sim engine opens a
// slot span, the policy's Decide runs inside it, and a GSD solve started
// on the same tracer lands as the decide span's child automatically. The
// ambient stack assumes starts and ends happen on one goroutine (the
// step-wise engine, the sequential GSD loop); concurrent recorders
// should use StartRoot/Child for explicit parenting or per-goroutine
// tracers.
package span

import (
	"sync"
	"time"
)

// Attr is one typed key/value attribute on a span.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  float64
	i    int64
}

type attrKind uint8

const (
	kindStr attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: kindStr, str: v} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: kindInt, i: int64(v)} }

// Int64 builds a 64-bit integer attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, i: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat, num: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: kindBool}
	if v {
		a.i = 1
	}
	return a
}

// Value returns the attribute's value as the natural Go type (string,
// int64, float64 or bool) — the form both exporters marshal.
func (a Attr) Value() any {
	switch a.kind {
	case kindStr:
		return a.str
	case kindInt:
		return a.i
	case kindFloat:
		return a.num
	default:
		return a.i != 0
	}
}

// Span is one timed, named, attributed interval. A nil *Span is the
// no-op span: every method is safe to call and does nothing, so call
// sites only guard span *construction*, never use.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	track  uint64
	name   string
	start  time.Duration // offset from the tracer's epoch
	end    time.Duration
	attrs  []Attr
	ended  bool
}

// Set appends attributes to the span. Nil- and post-End-safe.
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, attrs...)
	}
	s.tr.mu.Unlock()
}

// Child starts a new span explicitly parented under s, bypassing the
// ambient stack for the parent choice (the child still joins the stack so
// deeper ambient Starts nest under it). On a nil span it degrades to a
// root span only when a tracer cannot be reached — i.e. it returns nil.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.startLocked(name, s, attrs)
}

// End closes the span and commits it to the tracer's buffer. Ending a
// span twice is a no-op; ending out of start order is tolerated (the
// span is removed from wherever it sits on the ambient stack).
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.end = t.clock()
	// Remove from the ambient stack (innermost-first scan: the common
	// case is a perfectly nested End of the top span).
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
	if s.parent == 0 {
		t.releaseTrack(s.track)
	}
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// DefaultMaxSpans is the tracer's buffer cap (spans ended beyond it are
// dropped and counted): enough for a multi-week traced run (≈ 4
// spans/slot) or a few traced GSD solves at full iteration budgets, small
// enough to bound memory at tens of MB.
const DefaultMaxSpans = 1 << 20

// Tracer records spans. The zero value is not usable; construct with
// NewTracer. A nil *Tracer is the disabled tracer: Start and StartRoot
// return nil spans and every query returns zero, so "tracing off" is one
// nil check at each instrumentation site.
type Tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	nextID   uint64
	stack    []*Span // open spans, innermost last (ambient parenting)
	spans    []*Span // ended spans, in end order
	maxSpans int
	dropped  uint64

	// Track ids group spans into Perfetto rows: each root span leases the
	// smallest free track and its descendants inherit it, so sequential
	// slots reuse one row while overlapping roots fan out.
	freeTracks []uint64
	nextTrack  uint64
}

// NewTracer returns an enabled tracer with the default buffer cap.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), maxSpans: DefaultMaxSpans, nextTrack: 1}
}

// clock returns the monotonic offset from the tracer's epoch.
func (t *Tracer) clock() time.Duration { return time.Since(t.epoch) }

// Start opens a span nested under the innermost open span (ambient
// parenting), or as a root when none is open. Returns nil on a nil
// tracer.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var parent *Span
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	return t.startLocked(name, parent, attrs)
}

// StartRoot opens a span with no parent regardless of the ambient stack
// — the entry points of independently stepped subsystems (a geo
// federation step) force roots so pooled concurrent runs cannot adopt a
// stranger's open span.
func (t *Tracer) StartRoot(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.startLocked(name, nil, attrs)
}

func (t *Tracer) startLocked(name string, parent *Span, attrs []Attr) *Span {
	t.nextID++
	s := &Span{tr: t, id: t.nextID, name: name, start: t.clock()}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	if parent != nil {
		s.parent = parent.id
		s.track = parent.track
	} else {
		s.track = t.leaseTrack()
	}
	t.stack = append(t.stack, s)
	return s
}

// leaseTrack hands out the smallest free track id, minting a new one when
// none is free. Called with the tracer lock held.
func (t *Tracer) leaseTrack() uint64 {
	if n := len(t.freeTracks); n > 0 {
		best := 0
		for i := 1; i < n; i++ {
			if t.freeTracks[i] < t.freeTracks[best] {
				best = i
			}
		}
		tr := t.freeTracks[best]
		t.freeTracks = append(t.freeTracks[:best], t.freeTracks[best+1:]...)
		return tr
	}
	tr := t.nextTrack
	t.nextTrack++
	return tr
}

// releaseTrack returns a root span's track to the pool. Called with the
// tracer lock held.
func (t *Tracer) releaseTrack(track uint64) {
	t.freeTracks = append(t.freeTracks, track)
}

// Len returns the number of buffered (ended) spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Open returns the number of spans started but not yet ended.
func (t *Tracer) Open() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.stack)
}

// Dropped returns the number of spans discarded after the buffer cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset discards all buffered spans (open spans stay open) and clears
// the drop counter, so one long-lived tracer can serve several runs.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.dropped = 0
	t.mu.Unlock()
}

// snapshot copies the ended-span slice under the lock; the spans
// themselves are immutable once ended.
func (t *Tracer) snapshot() []*Span {
	t.mu.Lock()
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	return out
}
