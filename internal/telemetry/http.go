package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/telemetry/promtext"
	"repro/internal/telemetry/span"
)

// RegisterOpts tunes which observability endpoints RegisterWith mounts.
type RegisterOpts struct {
	// NoPprof leaves the /debug/pprof endpoints unmounted — for
	// production listeners where live profiling and symbol dumps should
	// not ride the public control plane.
	NoPprof bool
}

// Handler serves the observability endpoints:
//
//	/metrics       — Prometheus text exposition (flat + labeled series)
//	/spans         — the span tracer's buffer summary as JSON (404 when
//	                 no tracer is attached)
//	/debug/pprof/  — the standard pprof index, profiles and traces
//
// tr may be nil: a metrics-only process simply has no /spans data.
func Handler(r *Registry, tr *span.Tracer) http.Handler {
	mux := http.NewServeMux()
	RegisterWith(mux, r, tr, RegisterOpts{})
	return mux
}

// RegisterWith mounts the observability endpoints of Handler onto an
// existing mux, so a process serving its own API (the cocad control plane)
// exposes application and telemetry endpoints from one listener. opts
// gates pprof.
func RegisterWith(mux *http.ServeMux, r *Registry, tr *span.Tracer, opts RegisterOpts) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", promtext.ContentType)
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, _ *http.Request) {
		if tr == nil {
			http.Error(w, "no span tracer attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tr.Summarize()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if !opts.NoPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// Serve binds addr and serves Handler(r, tr) in the background. It
// returns once the listener is bound (so the caller can log the resolved
// address) together with the server; callers own the server's lifetime
// and should srv.Shutdown (or srv.Close) when the run ends so the
// listener is released.
func Serve(addr string, r *Registry, tr *span.Tracer) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: Handler(r, tr)}
	go func() {
		// ErrServerClosed on shutdown; anything else is already visible
		// through failed scrapes, and a metrics sidecar must never take
		// the run down with it.
		_ = srv.Serve(ln)
	}()
	return srv, ln.Addr(), nil
}
