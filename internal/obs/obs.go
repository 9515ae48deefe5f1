// Package obs is the live exposition layer over internal/metrics and
// internal/provenance: an embeddable HTTP server that makes a running
// process watchable.
//
// Each instrumentation signal leaves the process in exactly one shape:
//
//   - the metrics registry as Prometheus text exposition (prom.go),
//     served at /metrics and printed by the CLIs' -metrics flag;
//   - the trace ring as Chrome trace-event JSON (spans.go), served at
//     /trace.chrome and written by the CLIs' -trace-out flag.
//
// The other endpoints render status the process wires in through
// Options (policy lifecycle, front door, flight-recorder decisions,
// drift, SLO burn, cluster routing, readiness), plus net/http/pprof.
// The route table in routes() builds both the mux and the / index page.
//
// The server owns no instrumentation of its own: it reads whatever
// sources it is given, any of which may be nil (endpoints then serve
// empty payloads). The CLIs mount it behind -listen (simulator and
// training runs) or -obs (serving processes); with the flag unset
// nothing here runs, so the engine's zero-overhead-when-disabled
// contract is untouched.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/metrics"
	"repro/internal/provenance"
)

// Options configures a Server. Metrics and Trace may each be nil; the
// corresponding endpoints serve empty payloads.
type Options struct {
	Metrics *metrics.Registry
	Trace   *metrics.Tracer
	// Policy, when set, backs the /policy endpoint: it returns a
	// JSON-serializable snapshot of the policy lifecycle (active store
	// version, serving version, swap count, known versions — whatever
	// the process wires in, typically via serving.PolicyStatus). Nil
	// serves an empty object.
	Policy func() any
	// FrontDoor, when set, backs the /frontdoor endpoint: a
	// JSON-serializable snapshot of the query front door (per-tenant
	// queue depths, admission counters, rate-limit state — typically
	// frontdoor.Status). Nil serves an empty object.
	FrontDoor func() any
	// Provenance, when set, backs the /decisions explain view: recent
	// flight-recorder records with named features, scores, and joined
	// outcomes (?n=limit, ?kind=schedule|admit filter).
	Provenance *provenance.Recorder
	// Drift, when set, backs the /drift endpoint with the detector's
	// per-feature PSI snapshot. When nil but Provenance carries an
	// attached detector, that one serves instead.
	Drift *provenance.DriftDetector
	// SLO, when set, backs the /slo endpoint: per-tenant/class
	// multi-window error-budget burn rates.
	SLO *provenance.Tracker
	// Cluster, when set, backs the /cluster endpoint: a
	// JSON-serializable snapshot of the routing layer (per-node health,
	// queue depths, policy versions, conservation counters — typically
	// cluster.Status). Nil serves an empty object.
	Cluster func() any
	// Health, when set, backs the /healthz readiness endpoint; nil
	// reports ready (a mounted obs server with no health source is a
	// live process). Not-ready responses use status 503 so plain HTTP
	// probes work without parsing the body.
	Health func() HealthStatus
}

// Server exposes the observability endpoints. Build with NewServer,
// then either Start (listen + background serve) or mount Handler on an
// existing mux.
type Server struct {
	opts Options
	mux  *http.ServeMux
	srv  *http.Server
}

// route is one endpoint: its mux pattern, the line the index page
// prints for it (none when empty), and its handler.
type route struct {
	path, doc string
	handler   http.HandlerFunc
}

func (s *Server) routes() []route {
	return []route{
		{"/metrics", "registry, Prometheus text exposition", s.handleMetrics},
		{"/trace.chrome", "trace ring, Chrome trace-event JSON (load in Perfetto)", s.handleTraceChrome},
		{"/policy", "policy lifecycle status (JSON)", jsonStatus(s.opts.Policy)},
		{"/frontdoor", "query front door status (JSON)", jsonStatus(s.opts.FrontDoor)},
		{"/decisions", "recent learned decisions, explained (JSON; ?n, ?kind)", s.handleDecisions},
		{"/drift", "per-feature PSI drift vs training reference (JSON)", s.handleDrift},
		{"/slo", "per-tenant/class error-budget burn rates (JSON)", s.handleSLO},
		{"/cluster", "routing layer: per-node health and counters (JSON)", jsonStatus(s.opts.Cluster)},
		{"/healthz", "readiness probe (200 ready / 503 not)", s.handleHealthz},
		{"/debug/pprof/", "pprof profiling", pprof.Index},
		{"/debug/pprof/cmdline", "", pprof.Cmdline},
		{"/debug/pprof/profile", "", pprof.Profile},
		{"/debug/pprof/symbol", "", pprof.Symbol},
		{"/debug/pprof/trace", "", pprof.Trace},
	}
}

// NewServer builds a server (not yet listening) over the given sources.
func NewServer(opts Options) *Server {
	s := &Server{opts: opts, mux: http.NewServeMux()}
	var index strings.Builder
	index.WriteString("lsched observability endpoints:\n")
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.path, rt.handler)
		if rt.doc != "" {
			fmt.Fprintf(&index, "  %-15s %s\n", rt.path, rt.doc)
		}
	}
	page := index.String()
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, page) //nolint:errcheck
	})
	return s
}

// Handler returns the endpoint mux, for mounting on an existing server
// or driving in tests without a listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (host:port; port 0 picks a free one) and serves in a
// background goroutine. It returns the bound address, so callers can
// print a usable URL even for ":0".
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.srv = &http.Server{Handler: s.mux}
	go s.srv.Serve(ln) //nolint:errcheck — Serve always returns on Close
	return ln.Addr().String(), nil
}

// Close shuts the listener down (no-op when Start was never called).
func (s *Server) Close() error {
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, s.opts.Metrics.Snapshot())
}

func (s *Server) handleTraceChrome(w http.ResponseWriter, _ *http.Request) {
	data, err := ChromeTraceJSON(s.opts.Trace)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck
}

// jsonStatus serves src's snapshot as JSON, or an empty object when the
// process wired no source in.
func jsonStatus(src func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		if src == nil {
			writeJSON(w, struct{}{})
			return
		}
		writeJSON(w, src())
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck
}
