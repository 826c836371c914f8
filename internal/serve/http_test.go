package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

func testServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := testService(t)
	reg := telemetry.NewRegistry()
	s.Instrument(NewMetrics(reg, "serve"))
	srv := httptest.NewServer(s.Handler(reg, span.NewTracer()))
	t.Cleanup(srv.Close)
	return s, srv
}

func TestHandlerDecide(t *testing.T) {
	_, srv := testServer(t)
	in := testSlots(t, 0, 1)[0]
	body, _ := json.Marshal(in)
	resp, err := http.Post(srv.URL+"/decide", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /decide = %d", resp.StatusCode)
	}
	var d Decision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Slot != 0 || len(d.Speeds) != 3 {
		t.Fatalf("decision = %+v", d)
	}

	// Unknown fields are rejected, not silently dropped.
	resp, err = http.Post(srv.URL+"/decide", "application/json",
		strings.NewReader(`{"lambda_rps": 10, "typo_field": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field = %d, want 400", resp.StatusCode)
	}

	// Invalid observations map to 400 via ErrBadInput.
	resp, err = http.Post(srv.URL+"/decide", "application/json",
		strings.NewReader(`{"lambda_rps": -5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative lambda = %d, want 400", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(srv.URL + "/decide")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /decide = %d, want 405", resp.StatusCode)
	}
}

func TestHandlerIngestStream(t *testing.T) {
	s, srv := testServer(t)
	slots := testSlots(t, 0, 20)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, in := range slots {
		if err := enc.Encode(in); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(srv.URL+"/ingest", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var decisions []Decision
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("line %d: %v", len(decisions), err)
		}
		decisions = append(decisions, d)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(decisions) != len(slots) {
		t.Fatalf("got %d decisions, want %d", len(decisions), len(slots))
	}
	for i, d := range decisions {
		if d.Slot != i {
			t.Fatalf("decision %d carries slot %d", i, d.Slot)
		}
	}
	if st := s.State(); st.Slot != len(slots) || st.Hash != decisions[len(decisions)-1].Hash {
		t.Fatalf("state %+v does not match the last streamed decision", st)
	}
}

func TestHandlerIngestErrorRecord(t *testing.T) {
	s, srv := testServer(t)
	good := testSlots(t, 0, 1)[0]
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	_ = enc.Encode(good)
	buf.WriteString(`{"lambda_rps": -1}` + "\n") // invalid: terminates the stream
	_ = enc.Encode(good)                         // never reached
	resp, err := http.Post(srv.URL+"/ingest", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d records, want decision + error", len(lines))
	}
	if _, ok := lines[1]["error"]; !ok {
		t.Fatalf("second record is not an error: %v", lines[1])
	}
	// The slot before the failure stays settled.
	if st := s.State(); st.Slot != 1 {
		t.Fatalf("state slot %d, want 1", st.Slot)
	}
}

// TestHandlerIngestRejectsUnknownField pins /ingest to the /decide rule:
// a misspelled key is an error record, not a silently zero-valued slot.
func TestHandlerIngestRejectsUnknownField(t *testing.T) {
	s, srv := testServer(t)
	resp, err := http.Post(srv.URL+"/ingest", "application/x-ndjson",
		strings.NewReader(`{"lambda": 10, "onsite_kw": 1, "price_usd_per_kwh": 0.05}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 1 {
		t.Fatalf("got %d records, want one error record: %v", len(lines), lines)
	}
	if _, ok := lines[0]["error"]; !ok {
		t.Fatalf("record is not an error: %v", lines[0])
	}
	if st := s.State(); st.Slot != 0 {
		t.Fatalf("state slot %d after a rejected record, want 0", st.Slot)
	}
}

func TestHandlerStateCheckpointTelemetry(t *testing.T) {
	s, srv := testServer(t)
	drive(t, s, testSlots(t, 0, 5))

	resp, err := http.Get(srv.URL + "/state")
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Slot != 5 || st.Hash == "" {
		t.Fatalf("state = %+v", st)
	}

	resp, err = http.Get(srv.URL + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := json.NewDecoder(resp.Body).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ck.Version != CheckpointVersion || ck.Slot != 5 {
		t.Fatalf("checkpoint = version %d slot %d", ck.Version, ck.Slot)
	}
	// The /checkpoint document restores into a fresh service.
	fresh := testService(t)
	if err := fresh.RestoreFrom(ck); err != nil {
		t.Fatal(err)
	}
	if got := fresh.State(); got.Hash != s.State().Hash {
		t.Fatalf("restored hash %s, want %s", got.Hash, s.State().Hash)
	}

	// Telemetry endpoints ride the same mux.
	for _, path := range []string{"/metrics", "/spans", "/debug/vars"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
}
