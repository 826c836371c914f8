package telemetry

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestLabeledCounterConcurrentNoLostIncrements hammers one vector from 32
// goroutines over overlapping tuples (this is the -race workout for the
// striped intern path) and requires exact totals: every increment lands
// on exactly one child, none lost to a racing create.
func TestLabeledCounterConcurrentNoLostIncrements(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("test.hits", "", "site")
	sites := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	const goroutines = 32
	const perSite = 500

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine rotates through every site, starting at its
			// own offset so first-touch interning races across tuples.
			for i := 0; i < perSite*len(sites); i++ {
				lc.With(sites[(g+i)%len(sites)]).Inc()
			}
		}(g)
	}
	wg.Wait()

	snap := r.Snapshot().LabeledCounters["test.hits"]
	want := float64(goroutines * perSite)
	for _, site := range sites {
		got, ok := sample(snap, site)
		if !ok || got != want {
			t.Fatalf("test.hits{site=%q} = %v (ok=%v), want %v", site, got, ok, want)
		}
	}
	if len(snap.Series) != len(sites) {
		t.Fatalf("got %d series, want %d", len(snap.Series), len(sites))
	}
}

// TestLabeledSnapshotDeterministicOrder pins the sorted-series contract:
// tuples interned in scrambled order always snapshot in lexicographic
// label-value order, and two snapshots of the same state are identical.
func TestLabeledSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("test.series", "", "site", "kind")
	for _, tup := range [][2]string{{"z", "b"}, {"a", "b"}, {"z", "a"}, {"m", "x"}, {"a", "a"}} {
		lc.With(tup[0], tup[1]).Inc()
	}
	first := r.Snapshot().LabeledCounters["test.series"]
	wantOrder := [][]string{{"a", "a"}, {"a", "b"}, {"m", "x"}, {"z", "a"}, {"z", "b"}}
	for i, ser := range first.Series {
		if !reflect.DeepEqual(ser.Values, wantOrder[i]) {
			t.Fatalf("series[%d].Values = %v, want %v", i, ser.Values, wantOrder[i])
		}
	}
	second := r.Snapshot().LabeledCounters["test.series"]
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("snapshots of identical state differ:\n%+v\n%+v", first, second)
	}
}

// TestWithInternsOneChildPerTuple pins the handle-caching contract the
// fleet hot path relies on: With returns the same *Counter every time
// for a tuple, and distinct tuples get distinct children.
func TestWithInternsOneChildPerTuple(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("test.handles", "", "site")
	a1, a2, b := lc.With("a"), lc.With("a"), lc.With("b")
	if a1 != a2 {
		t.Fatal("With(a) returned two different children")
	}
	if a1 == b {
		t.Fatal("With(a) and With(b) share a child")
	}
}

// TestTupleKeyCollisionFree pins the length-prefixed key encoding:
// ("ab","c") and ("a","bc") concatenate identically but must intern as
// different tuples.
func TestTupleKeyCollisionFree(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("test.tuples", "", "x", "y")
	lc.With("ab", "c").Add(1)
	lc.With("a", "bc").Add(10)
	snap := r.Snapshot().LabeledCounters["test.tuples"]
	if v, _ := sample(snap, "ab", "c"); v != 1 {
		t.Fatalf(`{"ab","c"} = %v, want 1`, v)
	}
	if v, _ := sample(snap, "a", "bc"); v != 10 {
		t.Fatalf(`{"a","bc"} = %v, want 10`, v)
	}
}

// TestWithWrongArityPanics: a tuple of the wrong width is a programming
// error, caught loudly at the call site.
func TestWithWrongArityPanics(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("test.arity", "", "site", "kind")
	defer func() {
		if recover() == nil {
			t.Fatal("With with one value on a two-label vector did not panic")
		}
	}()
	lc.With("just-one")
}

// TestLabeledHistogramSharedBounds: every child shares the construction
// bucket layout, and NaN observations land in Invalid, not the buckets.
func TestLabeledHistogramSharedBounds(t *testing.T) {
	r := NewRegistry()
	lh := r.LabeledHistogram("test.lat", "", []float64{1, 10}, "site")
	lh.With("a").Observe(0.5)
	lh.With("a").Observe(5)
	lh.With("a").Observe(nan())
	lh.With("b").Observe(100)

	snap := r.Snapshot().LabeledHistograms["test.lat"]
	a, ok := snap.Get("a")
	if !ok || a.Count != 2 || a.Invalid != 1 {
		t.Fatalf("site a hist = %+v (ok=%v), want count 2 invalid 1", a, ok)
	}
	if !reflect.DeepEqual(a.Counts, []uint64{1, 1, 0}) {
		t.Fatalf("site a counts = %v", a.Counts)
	}
	b, _ := snap.Get("b")
	if !reflect.DeepEqual(b.Bounds, a.Bounds) {
		t.Fatalf("children disagree on bounds: %v vs %v", b.Bounds, a.Bounds)
	}
	if !reflect.DeepEqual(b.Counts, []uint64{0, 0, 1}) {
		t.Fatalf("site b counts = %v, want overflow bucket", b.Counts)
	}
}

// TestRegistryLabeledGetOrCreate: the registry hands back the same vector
// for a name, ignoring later help/label arguments like Histogram ignores
// later bounds.
func TestRegistryLabeledGetOrCreate(t *testing.T) {
	r := NewRegistry()
	first := r.LabeledGauge("test.g", "the help", "site")
	second := r.LabeledGauge("test.g", "different help", "other")
	if first != second {
		t.Fatal("registry created two vectors for one name")
	}
	first.With("x").Set(4)
	snap := r.Snapshot().LabeledGauges["test.g"]
	if snap.Help != "the help" {
		t.Fatalf("help = %q, want the first registration's", snap.Help)
	}
	if !reflect.DeepEqual(snap.Labels, []string{"site"}) {
		t.Fatalf("labels = %v, want the first registration's", snap.Labels)
	}
}

// TestRegistryCollisionPanics: two registrations that would render under
// one exposition name panic at registration or at the first With, instead
// of rendering two families of one name.
func TestRegistryCollisionPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		first  func(*Registry)
		second func(*Registry)
	}{
		{"counter and gauge",
			func(r *Registry) { r.Counter("x.y") },
			func(r *Registry) { r.Gauge("x.y") }},
		{"gauge and histogram",
			func(r *Registry) { r.LabeledGauge("x.y", "", "site") },
			func(r *Registry) { r.LabeledHistogram("x.y", "", nil, "site") }},
		{"x.y and x_y",
			func(r *Registry) { r.Counter("x.y") },
			func(r *Registry) { r.Counter("x_y") }},
		{"flat then labeled",
			func(r *Registry) { r.Counter("x.y") },
			func(r *Registry) { r.LabeledCounter("x.y", "", "site").With("a") }},
		{"labeled then flat",
			func(r *Registry) { r.LabeledHistogram("x.y", "", nil, "site").With("a") },
			func(r *Registry) { r.Histogram("x.y", nil) }},
		{"histogram then its invalid counter",
			func(r *Registry) { r.Histogram("x.y", nil) },
			func(r *Registry) { r.Counter("x.y_invalid") }},
		{"invalid counter then its histogram",
			func(r *Registry) { r.Counter("x.y_invalid") },
			func(r *Registry) { r.Histogram("x.y", nil) }},
		{"histogram then a gauge on its sum",
			func(r *Registry) { r.LabeledHistogram("x.y", "", nil, "site") },
			func(r *Registry) { r.Gauge("x.y_sum") }},
		{"count counter then its histogram",
			func(r *Registry) { r.Counter("x_y.count") },
			func(r *Registry) { r.Histogram("x.y", nil) }},
		{"histogram then a histogram on its buckets",
			func(r *Registry) { r.Histogram("x.y", nil) },
			func(r *Registry) { r.Histogram("x.y_bucket", nil) }},
		{"bucket histogram then its base histogram",
			func(r *Registry) { r.Histogram("x.y_bucket", nil) },
			func(r *Registry) { r.LabeledHistogram("x.y", "", nil, "site") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.first(r)
			defer func() {
				if recover() == nil {
					var buf bytes.Buffer
					_ = r.WritePrometheus(&buf)
					t.Fatalf("second registration did not panic; exposition:\n%s", buf.String())
				}
			}()
			tc.second(r)
		})
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// sample returns the snapshot's value for the label tuple, if present.
func sample(s LabeledSnapshot, values ...string) (float64, bool) {
	for _, ser := range s.Series {
		if slices.Equal(ser.Values, values) {
			return ser.Value, true
		}
	}
	return 0, false
}
