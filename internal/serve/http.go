package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/telemetry/span"
)

// HandlerOpts tunes the control-plane handler surface.
type HandlerOpts struct {
	// Telemetry gates the mounted observability endpoints (pprof).
	Telemetry telemetry.RegisterOpts
	// Log, when non-nil, receives one structured access record per
	// control-plane request, keyed by the request id the response echoes
	// in X-Request-Id.
	Log *slog.Logger
	// Ready supplies the /readyz probes; nil mounts an always-ready one.
	Ready *Readiness
}

// Handler mounts the control-plane endpoints and the telemetry surface on
// one mux:
//
//	POST /decide     — one SlotInput as JSON → one Decision as JSON
//	POST /ingest     — NDJSON stream of SlotInputs → NDJSON Decisions,
//	                   flushed per slot so the stream is live-tailable
//	GET  /state      — the running State document
//	GET  /checkpoint — the current Checkpoint as JSON
//	GET  /healthz    — liveness (200 once the listener is up)
//	GET  /readyz     — readiness probes (503 while any fails)
//	/metrics, /metrics.json, /spans, /debug/vars, /debug/pprof
//	                 — telemetry.RegisterWith
//
// Every control-plane request is counted and timed into path/code-labeled
// vectors ("http.requests", "http.request_seconds") and tagged with a
// request id. tr may be nil (no /spans data).
func (s *Service) Handler(reg *telemetry.Registry, tr *span.Tracer) http.Handler {
	return s.HandlerWith(reg, tr, HandlerOpts{})
}

// HandlerWith is Handler with explicit options.
func (s *Service) HandlerWith(reg *telemetry.Registry, tr *span.Tracer, opts HandlerOpts) http.Handler {
	mux := http.NewServeMux()
	hm := newHTTPMetrics(reg, "http")
	wrap := func(path string, h http.HandlerFunc) {
		mux.Handle(path, instrument(hm, opts.Log, path, h))
	}
	wrap("/decide", s.handleDecide)
	wrap("/ingest", s.handleIngest)
	wrap("/state", s.handleState)
	wrap("/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/healthz", handleHealthz)
	ready := opts.Ready
	if ready == nil {
		ready = NewReadiness()
	}
	mux.Handle("/readyz", ready)
	telemetry.RegisterWith(mux, reg, tr, opts.Telemetry)
	reg.OnScrape(s.refreshSettleLag)
	return mux
}

// httpMetrics is the per-endpoint request accounting. Cardinality: path
// is one of the four mounted endpoints and code an HTTP status — both
// bounded; request ids never become labels.
type httpMetrics struct {
	requests *telemetry.LabeledCounter
	seconds  *telemetry.LabeledHistogram
}

func newHTTPMetrics(r *telemetry.Registry, prefix string) *httpMetrics {
	return &httpMetrics{
		requests: r.LabeledCounter(prefix+".requests",
			"control-plane requests by endpoint and status", "path", "code"),
		seconds: r.LabeledHistogram(prefix+".request_seconds",
			"request wall time by endpoint", telemetry.ExpBuckets(1e-4, 4, 12), "path"),
	}
}

// reqSeq numbers requests within the process; the id is for correlating
// one request's access records and responses, not globally unique.
var reqSeq atomic.Uint64

// statusWriter records the status code an endpoint wrote. Unwrap keeps
// http.ResponseController working through the wrapper — handleIngest
// depends on it for EnableFullDuplex and per-slot flushes.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps one endpoint with request-id tagging, access logging
// and the path/code-labeled request accounting.
func instrument(m *httpMetrics, log *slog.Logger, path string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := "r" + strconv.FormatUint(reqSeq.Add(1), 10)
		w.Header().Set("X-Request-Id", id)
		if log != nil {
			log.Info("request",
				"id", id, "method", r.Method, "path", path, "remote", r.RemoteAddr)
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		code := sw.code
		if code == 0 { // endpoint wrote nothing: net/http sends 200
			code = http.StatusOK
		}
		secs := time.Since(start).Seconds()
		m.requests.With(path, strconv.Itoa(code)).Inc()
		m.seconds.With(path).Observe(secs)
		if log != nil {
			log.Info("response", "id", id, "path", path, "code", code, "seconds", secs)
		}
	})
}

// stepStatus maps a Step error to an HTTP status: malformed observations
// are the client's fault, an exhausted schedule is a conflict with the
// configured horizon, and an unsolvable slot (overload, solver failure) is
// unprocessable.
func stepStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadInput):
		return http.StatusBadRequest
	case errors.Is(err, core.ErrScheduleExhausted):
		return http.StatusConflict
	default:
		return http.StatusUnprocessableEntity
	}
}

func (s *Service) handleDecide(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a SlotInput JSON document", http.StatusMethodNotAllowed)
		return
	}
	var in SlotInput
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		http.Error(w, fmt.Sprintf("malformed slot input: %v", err), http.StatusBadRequest)
		return
	}
	d, err := s.Step(in)
	if err != nil {
		http.Error(w, err.Error(), stepStatus(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(d)
}

// handleIngest drives the slot loop over an NDJSON request stream. The
// first failing slot ends the stream with a trailing NDJSON error record
// ({"error": ...}); earlier slots stay settled — exactly the semantics of
// a partially consumed feed before a crash.
func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST an NDJSON stream of SlotInputs", http.StatusMethodNotAllowed)
		return
	}
	// Decisions stream back while the request body is still being read, so
	// the connection must run full duplex; without it, the first response
	// flush makes net/http close the request body mid-stream.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil {
		http.Error(w, "streaming ingest needs a full-duplex connection", http.StatusInternalServerError)
		return
	}
	out := bufio.NewWriter(w)
	defer out.Flush()
	enc := json.NewEncoder(out)
	flush := func() {
		out.Flush()
		_ = rc.Flush()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	for {
		var in SlotInput
		if err := dec.Decode(&in); err != nil {
			if err == io.EOF {
				return
			}
			_ = enc.Encode(map[string]string{"error": fmt.Sprintf("malformed slot input: %v", err)})
			flush()
			return
		}
		d, err := s.Step(in)
		if err != nil {
			_ = enc.Encode(map[string]string{"error": err.Error()})
			flush()
			return
		}
		if err := enc.Encode(d); err != nil {
			return
		}
		flush()
	}
}

func (s *Service) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET the state document", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.State())
}

func (s *Service) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET the checkpoint document", http.StatusMethodNotAllowed)
		return
	}
	ck, err := s.Checkpoint()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(ck)
}
