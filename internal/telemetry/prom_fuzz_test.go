package telemetry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/telemetry/promtext"
)

// fuzzReader hands out bytes of a fuzz input, then zeros once it runs dry.
type fuzzReader []byte

func (b *fuzzReader) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzReader) float() float64 {
	var w [8]byte
	for i := range w {
		w[i] = b.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
}

func (b *fuzzReader) str() string {
	n := int(b.byte() % 8)
	if n > len(*b) {
		n = len(*b)
	}
	s := string((*b)[:n])
	*b = (*b)[n:]
	return s
}

// fuzzSeed encodes one family for the seed corpus: kind, label count,
// name fragment, then per series a label value per label and a float.
func fuzzSeed(kind, labels byte, name string, series ...any) []byte {
	out := []byte{kind, labels, byte(len(name))}
	out = append(out, name...)
	out = append(out, byte(len(series)/(int(labels)%3+1)-1))
	for _, s := range series {
		switch v := s.(type) {
		case string:
			out = append(append(out, byte(len(v))), v...)
		case float64:
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// FuzzExpositionRoundTrip registers fuzzed families — one distinct
// sanitized name each, label values needing every escape, samples that
// include ±Inf, NaN, −0 and subnormals — renders them, parses the text
// back and requires every sample of the registry's Snapshot to come back
// exactly once, bit for bit (NaN matches NaN), with no family twice.
func FuzzExpositionRoundTrip(f *testing.F) {
	f.Add(fuzzSeed(0, 0, "run.slots", 3.0))
	f.Add(fuzzSeed(1, 1, "site\"gauge", "dc \"weird\"\\path\nnext", math.Copysign(0, -1), "", math.Inf(-1)))
	f.Add(fuzzSeed(2, 2, "lat", "a", "b", 5e-324, "\\", "\n", math.NaN()))
	f.Add(append(fuzzSeed(2, 0, "9h", math.Inf(1)), fuzzSeed(1, 0, "µ.g", -2.5e-310)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzReader(data)
		r := NewRegistry()
		for i := 0; len(in) > 0 && i < 8; i++ {
			kind, nkeys := in.byte()%3, int(in.byte()%3)
			name := "f" + strconv.Itoa(i) + "." + in.str()
			keys := []string{"site", "kind"}[:nkeys]
			series := 1 + int(in.byte()%3)
			for s := 0; s < series; s++ {
				values := make([]string, nkeys)
				for k := range values {
					values[k] = in.str()
				}
				v := in.float()
				switch kind {
				case 0:
					r.LabeledCounter(name, "help \\ "+name, keys...).With(values...).Add(v)
				case 1:
					r.LabeledGauge(name, "", keys...).With(values...).Set(v)
				default:
					h := r.LabeledHistogram(name, "", []float64{-1, 0, 1e-300, 1}, keys...).With(values...)
					h.Observe(v)
					h.Observe(-v)
				}
			}
		}

		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("exposition does not parse: %v\n%s", err, buf.Bytes())
		}
		got := map[string]float64{}
		for _, fam := range fams {
			for _, s := range fam.Samples {
				key := seriesKey(s.Name, s.Labels)
				if _, dup := got[key]; dup {
					t.Fatalf("series %s rendered twice\n%s", key, buf.Bytes())
				}
				got[key] = s.Value
			}
		}

		want := expectedSamples(r.Snapshot())
		if len(got) != len(want) {
			t.Fatalf("parsed %d series, snapshot has %d\n%s", len(got), len(want), buf.Bytes())
		}
		for key, w := range want {
			g, ok := got[key]
			if !ok {
				t.Fatalf("series %s missing\n%s", key, buf.Bytes())
			}
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("series %s = %v (%#x), want %v (%#x)", key, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	})
}

// expectedSamples lists every series the exposition of s must carry,
// keyed by seriesKey.
func expectedSamples(s Snapshot) map[string]float64 {
	out := map[string]float64{}
	scalar := func(name string, labels []promtext.Label, v float64) {
		out[seriesKey(promtext.SanitizeName(name), labels)] = v
	}
	hist := func(name string, labels []promtext.Label, h HistogramSnapshot) {
		n := promtext.SanitizeName(name)
		cum := uint64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			out[seriesKey(n+"_bucket", withLE(labels, promtext.FormatValue(b)))] = float64(cum)
		}
		out[seriesKey(n+"_bucket", withLE(labels, "+Inf"))] = float64(h.Count)
		out[seriesKey(n+"_sum", labels)] = h.Sum
		out[seriesKey(n+"_count", labels)] = float64(h.Count)
		out[seriesKey(n+"_invalid", labels)] = float64(h.Invalid)
	}
	for name, v := range s.Counters {
		scalar(name, nil, v)
	}
	for name, v := range s.Gauges {
		scalar(name, nil, v)
	}
	for name, h := range s.Histograms {
		hist(name, nil, h)
	}
	for _, vecs := range []map[string]LabeledSnapshot{s.LabeledCounters, s.LabeledGauges} {
		for name, vec := range vecs {
			for _, ser := range vec.Series {
				scalar(name, tupleToLabels(vec.Labels, ser.Values), ser.Value)
			}
		}
	}
	for name, vec := range s.LabeledHistograms {
		for _, ser := range vec.Series {
			hist(name, tupleToLabels(vec.Labels, ser.Values), ser.Hist)
		}
	}
	return out
}

func withLE(labels []promtext.Label, le string) []promtext.Label {
	return append(append([]promtext.Label(nil), labels...), promtext.Label{Name: "le", Value: le})
}

// seriesKey identifies one series by name and its labels in order.
func seriesKey(name string, labels []promtext.Label) string {
	key := name
	for _, l := range labels {
		key += fmt.Sprintf(" %s=%q", l.Name, l.Value)
	}
	return key
}
