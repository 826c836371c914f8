package promtext

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"run.slots":         "run_slots",
		"geo.site.cost_usd": "geo_site_cost_usd",
		"already_fine:ok":   "already_fine:ok",
		"has spaces-and.µ":  "has_spaces_and__",
		"9starts_digit":     "_9starts_digit",
		"mid9digit":         "mid9digit",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:               "0",
		1.5:             "1.5",
		0.1:             "0.1",
		1e21:            "1e+21",
		-2.5:            "-2.5",
		math.Inf(1):     "+Inf",
		math.Inf(-1):    "-Inf",
		1.0000000000001: "1.0000000000001",
	}
	for in, want := range cases {
		if got := FormatValue(in); got != want {
			t.Errorf("FormatValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := FormatValue(math.NaN()); got != "NaN" {
		t.Errorf("FormatValue(NaN) = %q", got)
	}
	// Shortest-decimal rendering must recover the exact bits.
	for _, v := range []float64{1.0 / 3.0, math.Pi, 6.62607015e-34, math.MaxFloat64} {
		back, err := strconv.ParseFloat(FormatValue(v), 64)
		if err != nil || back != v {
			t.Errorf("FormatValue(%v) = %q does not round-trip (%v, %v)", v, FormatValue(v), back, err)
		}
	}
}

// TestWriteParseRoundTrip renders families through the writer and parses
// them back, including label values that need every escape the format
// defines.
func TestWriteParseRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WriteHeader(&b, "requests", "total requests\nby path", "counter"); err != nil {
		t.Fatal(err)
	}
	wantSamples := []Sample{
		{Name: "requests", Labels: []Label{{Name: "path", Value: "/decide"}, {Name: "code", Value: "200"}}, Value: 17},
		{Name: "requests", Labels: []Label{{Name: "path", Value: `quo"te\slash` + "\nline"}}, Value: 0.125},
		{Name: "requests", Labels: nil, Value: math.Inf(1)},
	}
	for _, s := range wantSamples {
		if err := WriteSample(&b, s.Name, s.Labels, s.Value); err != nil {
			t.Fatal(err)
		}
	}

	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("parse of own output failed: %v\n%s", err, b.String())
	}
	if len(fams) != 1 {
		t.Fatalf("got %d families, want 1: %+v", len(fams), fams)
	}
	f := fams[0]
	if f.Name != "requests" || f.Type != "counter" {
		t.Fatalf("family = %+v", f)
	}
	if !reflect.DeepEqual(f.Samples, wantSamples) {
		t.Fatalf("samples do not round-trip:\ngot  %+v\nwant %+v", f.Samples, wantSamples)
	}
}

// TestParseHistogramFamilyGrouping: _bucket/_sum/_count samples attach to
// the histogram family that declared them.
func TestParseHistogramFamilyGrouping(t *testing.T) {
	text := `# TYPE lat histogram
lat_bucket{le="1"} 2
lat_bucket{le="+Inf"} 3
lat_sum 4.5
lat_count 3
# TYPE other gauge
other 1
`
	fams, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 {
		t.Fatalf("got %d families, want 2: %+v", len(fams), fams)
	}
	if fams[0].Name != "lat" || len(fams[0].Samples) != 4 {
		t.Fatalf("histogram family = %+v", fams[0])
	}
	inf, ok := Find(fams, "lat_bucket", Label{Name: "le", Value: "+Inf"})
	if !ok || inf.Value != 3 {
		t.Fatalf("+Inf bucket = %+v (ok=%v)", inf, ok)
	}
}

// TestParseTolerance: blank lines, free-form comments, headerless samples
// and trailing timestamps all parse; genuinely malformed lines error.
func TestParseTolerance(t *testing.T) {
	text := "\n# just a comment\nfree_sample 4 1712000000\n"
	fams, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || fams[0].Type != "untyped" || fams[0].Samples[0].Value != 4 {
		t.Fatalf("headerless parse = %+v", fams)
	}

	for _, bad := range []string{
		"no_value_here\n",
		`unterminated{a="b 3` + "\n",
		`badlabel{a=b} 3` + "\n",
		"name notafloat\n",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestParseRejectsReappearingFamily: a family's lines must be contiguous
// and headed once, so a header after the family's samples, a second
// # TYPE, or any line returning to a closed family is an error, not a
// silent second family.
func TestParseRejectsReappearingFamily(t *testing.T) {
	for _, text := range []string{
		"# TYPE x_y counter\nx_y 1\n# TYPE x_y gauge\nx_y 2\n",
		"# TYPE a counter\na 1\n# TYPE b counter\nb 1\n# TYPE a counter\na 2\n",
		"# TYPE a counter\na 1\n# TYPE b gauge\nb 1\n# HELP a again\n",
		"a 1\nb 2\na 3\n",
		"# TYPE a counter\n# TYPE a gauge\na 1\n",
	} {
		if fams, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("Parse(%q) = %d families, want a reappearing-family error", text, len(fams))
		}
	}
	// HELP then TYPE (or TYPE then HELP) for one name opens one family.
	fams, err := Parse(strings.NewReader("# HELP a h\n# TYPE a counter\na 1\n# TYPE b gauge\n# HELP b h\nb 2\n"))
	if err != nil || len(fams) != 2 || fams[0].Type != "counter" || fams[1].Help != "h" {
		t.Fatalf("Parse = %+v, %v; want families a and b", fams, err)
	}
}

func TestSortFamilies(t *testing.T) {
	fams := []Family{{Name: "z"}, {Name: "a"}, {Name: "m"}}
	SortFamilies(fams)
	got := []string{fams[0].Name, fams[1].Name, fams[2].Name}
	if !reflect.DeepEqual(got, []string{"a", "m", "z"}) {
		t.Fatalf("order = %v", got)
	}
}
