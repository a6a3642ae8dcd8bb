// Package metricsrv serves the observability plane over HTTP:
//
//	GET /metrics  — Prometheus text exposition rendered from a
//	                telemetry.Registry snapshot
//	GET /healthz  — JSON liveness with uptime, journal and tracer
//	                occupancy and what each has dropped
//	GET /journal  — NDJSON tail of the event journal (?n= bounds it;
//	                ?since=<seq> returns only events newer than seq,
//	                the incremental-poll cursor)
//	GET /trace    — NDJSON snapshot of the causal trace buffer, served
//	                only when there is a tracer (ddnode's)
//
// All inputs are optional: a nil registry exposes an empty metrics
// page, a nil journal an empty tail and a nil tracer no /trace at all
// (404) — so ddnode and ddsim can enable the plane piecemeal. The
// server owns only a listener and handlers; rendering lives with the
// data types (telemetry.Snapshot, journal.Journal, trace.Tracer),
// keeping those packages free of net/http.
package metricsrv

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"ddpolice/internal/journal"
	"ddpolice/internal/telemetry"
	"ddpolice/internal/trace"
)

// Config selects what the server exposes.
type Config struct {
	// Registry is snapshotted per /metrics request; nil serves an
	// empty exposition.
	Registry *telemetry.Registry
	// Journal backs /journal and the healthz occupancy fields; nil
	// serves an empty tail.
	Journal *journal.Journal
	// Tracer backs /trace and the healthz span fields; nil leaves
	// /trace unregistered and the span fields out of /healthz.
	Tracer *trace.Tracer
	// Health, when non-nil, contributes extra fields to the /healthz
	// document (merged over the defaults).
	Health func() map[string]any
}

// defaultJournalTail bounds /journal responses when no ?n= is given.
const defaultJournalTail = 256

// Server is a running exposition endpoint.
type Server struct {
	cfg   Config
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// Serve starts the exposition server on addr (host:0 picks a free
// port; read it back with Addr).
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metricsrv: listen: %w", err)
	}
	s := &Server{cfg: cfg, ln: ln, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/journal", s.handleJournal)
	if cfg.Tracer != nil {
		mux.HandleFunc("/trace", s.handleTrace)
	}
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server immediately.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var snap telemetry.Snapshot
	if s.cfg.Registry != nil {
		snap = s.cfg.Registry.Snapshot()
	}
	_ = snap.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	doc := map[string]any{
		"status":          "ok",
		"uptime_seconds":  time.Since(s.start).Seconds(),
		"journal_events":  s.cfg.Journal.Len(),
		"journal_dropped": s.cfg.Journal.Dropped(),
	}
	// A server without a tracer (ddsim's) has no span counts to report;
	// zeros would read as a tracer that recorded nothing.
	if s.cfg.Tracer != nil {
		doc["trace_spans"] = s.cfg.Tracer.Len()
		doc["trace_dropped"] = s.cfg.Tracer.Dropped()
	}
	if s.cfg.Health != nil {
		for k, v := range s.cfg.Health() {
			doc[k] = v
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(doc)
}

func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	var events []journal.Event
	if q := r.URL.Query().Get("since"); q != "" {
		// Cursor mode: everything newer than the given sequence number,
		// so pollers can resume where the previous scrape left off.
		since, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "metricsrv: bad since", http.StatusBadRequest)
			return
		}
		events = s.cfg.Journal.EventsSince(since)
	} else {
		n := defaultJournalTail
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				http.Error(w, "metricsrv: bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		events = s.cfg.Journal.Tail(n)
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return
		}
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	_ = s.cfg.Tracer.WriteNDJSON(w)
}
