package span

import (
	"sync"
	"testing"
)

func TestAmbientNesting(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root")
	child := tr.Start("child")
	grand := tr.Start("grand")
	if grand.parent != child.id || child.parent != root.id || root.parent != 0 {
		t.Fatalf("ambient parents: root=%d child=%d grand=%d", root.parent, child.parent, grand.parent)
	}
	grand.End()
	// After the innermost End, the ambient parent is child again.
	sib := tr.Start("sibling")
	if sib.parent != child.id {
		t.Fatalf("sibling parent = %d, want %d", sib.parent, child.id)
	}
	sib.End()
	child.End()
	root.End()
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Open(); got != 0 {
		t.Fatalf("Open = %d, want 0", got)
	}
}

func TestExplicitChildAndRoot(t *testing.T) {
	tr := NewTracer()
	a := tr.Start("a")
	// StartRoot ignores the open span.
	b := tr.StartRoot("b")
	if b.parent != 0 {
		t.Fatalf("StartRoot parent = %d", b.parent)
	}
	if b.track == a.track {
		t.Fatalf("concurrent roots share track %d", b.track)
	}
	// Explicit Child parents under a even though b is innermost.
	c := a.Child("c")
	if c.parent != a.id {
		t.Fatalf("Child parent = %d, want %d", c.parent, a.id)
	}
	if c.track != a.track {
		t.Fatalf("child track = %d, want parent's %d", c.track, a.track)
	}
	c.End()
	b.End()
	a.End()
}

func TestNilTracerAndSpanAreNoops(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x", Int("k", 1))
	if s != nil {
		t.Fatal("nil tracer returned a span")
	}
	// Every method must be safe on the nils.
	s.Set(Str("a", "b"))
	s.End()
	if s.Child("y") != nil {
		t.Fatal("nil span produced a child")
	}
	if tr.Len() != 0 || tr.Open() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer reports state")
	}
	if got := tr.Summarize(); got.Spans != 0 {
		t.Fatal("nil tracer summarized spans")
	}
	tr.Reset()
}

func TestDoubleEndAndLateSet(t *testing.T) {
	tr := NewTracer()
	s := tr.Start("s", Int("a", 1))
	s.End()
	s.Set(Int("b", 2)) // after End: dropped
	s.End()            // second End: no-op
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after double End", tr.Len())
	}
	if n := len(tr.snapshot()[0].attrs); n != 1 {
		t.Fatalf("post-End Set landed: %d attrs", n)
	}
}

func TestBufferCapDrops(t *testing.T) {
	tr := NewTracer()
	tr.maxSpans = 2
	for i := 0; i < 5; i++ {
		tr.Start("s").End()
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped = %d, want 3", tr.Dropped())
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("Reset did not clear the buffer")
	}
}

func TestTrackReuse(t *testing.T) {
	tr := NewTracer()
	a := tr.Start("a")
	a.End()
	b := tr.Start("b")
	b.End()
	if a.track != b.track {
		t.Fatalf("sequential roots on tracks %d and %d, want reuse", a.track, b.track)
	}
	// Overlapping roots need distinct tracks; the freed smaller one is
	// reused first.
	c := tr.StartRoot("c")
	d := tr.StartRoot("d")
	if c.track == d.track {
		t.Fatal("overlapping roots share a track")
	}
	c.End()
	e := tr.StartRoot("e")
	if e.track != c.track {
		t.Fatalf("freed track %d not reused (got %d)", c.track, e.track)
	}
	d.End()
	e.End()
}

// TestConcurrentRecorders exercises the mutex paths under -race: many
// goroutines record explicit root/child spans into one tracer.
func TestConcurrentRecorders(t *testing.T) {
	tr := NewTracer()
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				root := tr.StartRoot("work", Int("worker", w))
				child := root.Child("sub", Int("i", i))
				child.Set(Bool("ok", true))
				child.End()
				root.End()
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Len(); got != workers*each*2 {
		t.Fatalf("Len = %d, want %d", got, workers*each*2)
	}
	if tr.Open() != 0 {
		t.Fatalf("Open = %d, want 0", tr.Open())
	}
}

func TestSummarize(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 3; i++ {
		tr.Start("solve").End()
	}
	tr.Start("slot").End()
	open := tr.Start("open")
	s := tr.Summarize()
	if s.Spans != 4 || s.Open != 1 {
		t.Fatalf("Summary spans=%d open=%d", s.Spans, s.Open)
	}
	if len(s.ByName) != 2 || s.ByName[0].Name != "slot" || s.ByName[1].Name != "solve" {
		t.Fatalf("ByName = %+v", s.ByName)
	}
	if s.ByName[1].Count != 3 {
		t.Fatalf("solve count = %d", s.ByName[1].Count)
	}
	open.End()
}

func TestAttrValues(t *testing.T) {
	cases := []struct {
		attr Attr
		want any
	}{
		{Str("s", "v"), "v"},
		{Int("i", -3), int64(-3)},
		{Int64("i64", 1<<40), int64(1 << 40)},
		{Float("f", 2.5), 2.5},
		{Bool("b", true), true},
		{Bool("b", false), false},
	}
	for _, c := range cases {
		if got := c.attr.Value(); got != c.want {
			t.Fatalf("%q: Value = %v (%T), want %v (%T)", c.attr.Key, got, got, c.want, c.want)
		}
	}
}
