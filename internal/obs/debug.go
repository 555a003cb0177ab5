package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// DebugServer is a running diagnostics listener (see ServeWith).
type DebugServer struct {
	srv  *http.Server
	addr string
}

// Addr returns the bound listen address (useful with ":0").
func (d *DebugServer) Addr() string { return d.addr }

// Close shuts the listener down immediately.
func (d *DebugServer) Close() { d.srv.Close() }

// ServeOpts selects the export surfaces of a debug listener. Every field
// is optional; zero fields disable their endpoints (404).
type ServeOpts struct {
	// Registry backs /metrics (JSON and Prometheus text) and /healthz.
	Registry *Registry
	// Events backs the /events SSE stream (wire a ledger with a one-line
	// adapter; see EventSource).
	Events EventSource
	// Sampler backs /timeseries with its ring-buffer window. The caller
	// owns the sampler's Start/Stop lifecycle.
	Sampler *Sampler
	// Attribution backs /attribution: called per request, it returns the
	// latest availability-attribution report to serialise (typically the
	// current *attr.Report). Declared as any to keep obs free of an attr
	// dependency.
	Attribution func() any
}

// wantProm reports whether the request negotiated the Prometheus text
// exposition: either ?format=prom (explicit, scrape-config friendly) or an
// Accept header preferring text/plain (the Prometheus scraper sends
// "text/plain;version=0.0.4" variants) or OpenMetrics.
func wantProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// ServeWith starts the diagnostics HTTP listener on addr:
//
//	/debug/pprof/...  net/http/pprof (profile, heap, goroutine, trace, ...)
//	/debug/vars       expvar (memstats, cmdline)
//	/metrics          live snapshot of the registry: JSON by default,
//	                  Prometheus text exposition with ?format=prom or an
//	                  Accept header preferring text/plain
//	/healthz          aggregated solver anomaly state (200 healthy / 503)
//	/events           SSE stream of ledger events (slow clients drop)
//	/timeseries       sampler ring-buffer window as JSON
//	/attribution      latest availability-attribution report as JSON
//
// Binding failures are reported immediately rather than from the serving
// goroutine.
func ServeWith(addr string, opts ServeOpts) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	reg := opts.Registry
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.Error(w, "metrics registry disabled", http.StatusNotFound)
			return
		}
		if wantProm(r) {
			w.Header().Set("Content-Type", PromContentType)
			if err := WritePromText(w, reg.Snapshot()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", healthzHandler(reg))
	mux.HandleFunc("/events", sseHandler(opts.Events, reg))
	mux.HandleFunc("/timeseries", func(w http.ResponseWriter, _ *http.Request) {
		if opts.Sampler == nil {
			http.Error(w, "sampler disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := opts.Sampler.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/attribution", func(w http.ResponseWriter, _ *http.Request) {
		if opts.Attribution == nil {
			http.Error(w, "attribution source disabled", http.StatusNotFound)
			return
		}
		state := opts.Attribution()
		if state == nil {
			http.Error(w, "no attribution pass recorded yet", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(state); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns once closed
	return &DebugServer{srv: srv, addr: ln.Addr().String()}, nil
}
