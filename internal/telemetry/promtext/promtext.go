// Package promtext reads and writes the Prometheus text exposition
// format, version 0.0.4 — hand-rolled so the repository stays
// dependency-free. The writer half is the rendering kernel behind the
// telemetry registry's /metrics endpoint; the parser half exists so tests
// (and smoke scrapes) can round-trip an exposition back into samples and
// compare values bit for bit.
//
// Format reference: one family at a time, optional "# HELP name text" and
// "# TYPE name kind" comments followed by that family's samples
//
//	name{label="value",...} 3.14
//
// with label values escaped (\\, \", \n) and floats rendered shortest
// round-trip (strconv 'g', -1), so parsing a rendered value recovers the
// exact float64 bits.
package promtext

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the exposition content type scrapers negotiate.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair.
type Label struct {
	Name  string
	Value string
}

// Sample is one rendered series sample.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Family groups the samples rendered under one # TYPE/# HELP header.
type Family struct {
	Name    string
	Help    string
	Type    string // counter | gauge | histogram | untyped
	Samples []Sample
}

// SanitizeName maps a registry instrument name onto the exposition's
// [a-zA-Z_:][a-zA-Z0-9_:]* alphabet: dots (the registry's namespace
// separator) and every other invalid rune become underscores, and a
// leading digit gains one.
func SanitizeName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			if r >= '0' && r <= '9' { // leading digit
				b.WriteByte('_')
				b.WriteRune(r)
				continue
			}
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// FormatValue renders a float the way the exposition expects: shortest
// exact decimal, with the spellings +Inf/-Inf/NaN for the specials.
func FormatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the format: backslash, quote,
// newline.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a help string (backslash and newline only).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// WriteHeader writes the # HELP (when help is non-empty) and # TYPE
// comments opening a family. name must already be sanitized.
func WriteHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// WriteSample writes one sample line. name must already be sanitized;
// labels render in the order given.
func WriteSample(w io.Writer, name string, labels []Label, value float64) error {
	if len(labels) == 0 {
		_, err := fmt.Fprintf(w, "%s %s\n", name, FormatValue(value))
		return err
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(SanitizeName(l.Name))
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteString("} ")
	b.WriteString(FormatValue(value))
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// Parse reads an exposition back into families. Samples are attached to
// the most recent # TYPE header whose name prefixes them (the histogram
// convention: name_bucket/_sum/_count belong to family name); samples
// with no header open an untyped family of their own. A family must be
// contiguous and headed once, so a header after its samples, a second
// # TYPE or a return to a closed family is an error: the exposition
// renders one name twice. Blank lines are skipped; anything else
// malformed is an error naming the line.
func Parse(r io.Reader) ([]Family, error) {
	var (
		fams   []Family
		cur    *Family
		typed  bool // cur has had its # TYPE
		seen   = map[string]bool{}
		lineNo int
	)
	// open makes name's family current. A header continues the current
	// family only before its first sample; any other return to a family
	// already seen means the exposition renders it twice.
	open := func(name string, header bool) error {
		if cur != nil && cur.Name == name && !(header && len(cur.Samples) > 0) {
			return nil
		}
		if seen[name] {
			return fmt.Errorf("promtext: line %d: family %s reappears", lineNo, name)
		}
		seen[name], typed = true, false
		fams = append(fams, Family{Name: name, Type: "untyped"})
		cur = &fams[len(fams)-1]
		return nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue // free-form comment
			}
			switch fields[1] {
			case "HELP":
				if err := open(fields[2], true); err != nil {
					return nil, err
				}
				if len(fields) == 4 {
					cur.Help = fields[3]
				}
			case "TYPE":
				if len(fields) != 4 {
					return nil, fmt.Errorf("promtext: line %d: malformed TYPE", lineNo)
				}
				if err := open(fields[2], true); err != nil {
					return nil, err
				}
				if typed {
					return nil, fmt.Errorf("promtext: line %d: second TYPE for %s", lineNo, cur.Name)
				}
				cur.Type, typed = fields[3], true
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("promtext: line %d: %w", lineNo, err)
		}
		if cur == nil || !sampleInFamily(s.Name, cur.Name) {
			if err := open(s.Name, false); err != nil {
				return nil, err
			}
		}
		cur.Samples = append(cur.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// sampleInFamily reports whether a sample name belongs to the family:
// exact match or a family-name prefix plus a suffix like _bucket/_sum.
func sampleInFamily(sample, family string) bool {
	if sample == family {
		return true
	}
	return strings.HasPrefix(sample, family+"_")
}

// parseSample parses `name{l="v",...} value` or `name value`.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote, escaped := false, false
		for i := 1; i < len(rest); i++ {
			c := rest[i]
			switch {
			case escaped:
				escaped = false
			case c == '\\' && inQuote:
				escaped = true
			case c == '"':
				inQuote = !inQuote
			case c == '}' && !inQuote:
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// Ignore an optional trailing timestamp (we never write one).
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses the inside of a {...} label set.
func parseLabels(s string) ([]Label, error) {
	var out []Label
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without value in %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("unquoted label value after %q", name)
		}
		var b strings.Builder
		i, escaped, closed := 1, false, false
		for ; i < len(s); i++ {
			c := s[i]
			if escaped {
				switch c {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(c)
				}
				escaped = false
				continue
			}
			if c == '\\' {
				escaped = true
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			b.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated value for label %q", name)
		}
		out = append(out, Label{Name: name, Value: b.String()})
		s = strings.TrimPrefix(strings.TrimSpace(s[i:]), ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// Find returns the first sample matching name and the given label subset
// across all families — a test convenience.
func Find(fams []Family, name string, labels ...Label) (Sample, bool) {
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name != name {
				continue
			}
			match := true
			for _, want := range labels {
				got, ok := labelValue(s.Labels, want.Name)
				if !ok || got != want.Value {
					match = false
					break
				}
			}
			if match {
				return s, true
			}
		}
	}
	return Sample{}, false
}

func labelValue(labels []Label, name string) (string, bool) {
	for _, l := range labels {
		if l.Name == name {
			return l.Value, true
		}
	}
	return "", false
}

// SortFamilies orders families by name — handy for asserting on parses of
// expositions whose family order is not the writer's.
func SortFamilies(fams []Family) {
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
}
