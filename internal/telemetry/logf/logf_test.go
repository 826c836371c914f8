package logf

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTextFormat(t *testing.T) {
	var b strings.Builder
	log, err := New(&b, FormatText)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("listening", "addr", "127.0.0.1:8080")
	line := strings.TrimSuffix(b.String(), "\n")
	// The record leads with its time attribute; the rest is fixed.
	stamp, rest, ok := strings.Cut(line, " ")
	if ts, found := strings.CutPrefix(stamp, "time="); !ok || !found {
		t.Fatalf("text line %q does not lead with a time attribute", line)
	} else if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
		t.Errorf("text line %q: time attribute: %v", line, err)
	}
	if want := "level=INFO msg=listening addr=127.0.0.1:8080"; rest != want {
		t.Errorf("text record %q, want %q", rest, want)
	}
}

func TestJSONFormat(t *testing.T) {
	var b strings.Builder
	log, err := New(&b, FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	log.Error("checkpoint failed", "err", "disk full", "slot", 42)
	var rec map[string]any
	if err := json.Unmarshal([]byte(b.String()), &rec); err != nil {
		t.Fatalf("json line does not decode: %v\n%s", err, b.String())
	}
	ts, ok := rec["time"].(string)
	if !ok {
		t.Fatalf("record %v has no time key", rec)
	}
	if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
		t.Errorf("time key: %v", err)
	}
	delete(rec, "time")
	if len(rec) != 4 || rec["msg"] != "checkpoint failed" || rec["err"] != "disk full" ||
		rec["slot"] != float64(42) || rec["level"] != "ERROR" {
		t.Fatalf("record without its time = %v", rec)
	}
}

func TestUnknownFormat(t *testing.T) {
	if _, err := New(&strings.Builder{}, "yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}
