package extra

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/trace"
)

// WithDebugServer starts an opt-in ops-plane HTTP listener on addr at
// Open — the admin surface a future network server would expose on its
// admin port. Endpoints:
//
//	/metrics                Prometheus text exposition of the metrics snapshot
//	/statz                  JSON stats document (metrics, pool, tracer)
//	/slow                   JSON slow-query ring
//	/traces                 JSON index of retained statement traces
//	/traces/{id}            one trace as Chrome trace_event JSON (also /traces/last)
//	/debug/pprof/...        net/http/pprof profiles
//
// Enabling the server also turns on per-statement runtime/pprof labels
// (session, stmt_kind), so CPU profiles taken through /debug/pprof
// attribute samples to query shapes. Use addr "127.0.0.1:0" to bind an
// ephemeral port; DebugAddr reports the bound address.
func WithDebugServer(addr string) Option {
	return func(c *config) { c.debugAddr = addr }
}

// debugServer is the running ops-plane listener.
type debugServer struct {
	ln  net.Listener
	srv *http.Server
}

// startDebugServer binds the ops-plane listener and serves it on a
// background goroutine. Called from Open.
func (db *DB) startDebugServer(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug server: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", db.handleMetrics)
	mux.HandleFunc("/statz", db.handleStatz)
	mux.HandleFunc("/slow", db.handleSlow)
	mux.HandleFunc("/traces", db.handleTraces)
	mux.HandleFunc("/traces/", db.handleTraces)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	db.debug = &debugServer{ln: ln, srv: srv}
	db.labelStmts.Store(true)
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return nil
}

// stopDebugServer shuts the listener down (idempotent). Called from
// Close, before the commit lock is taken, so an in-flight handler never
// deadlocks against Close.
func (db *DB) stopDebugServer() {
	if db.debug == nil {
		return
	}
	db.labelStmts.Store(false)
	db.debug.srv.Close()
	db.debug = nil
}

// DebugAddr returns the bound address of the ops-plane server, or ""
// when it is not running. With WithDebugServer("127.0.0.1:0") this is
// how callers learn the ephemeral port.
func (db *DB) DebugAddr() string {
	if db.debug == nil {
		return ""
	}
	return db.debug.ln.Addr().String()
}

// handleMetrics serves the merged metrics snapshot in the Prometheus
// text exposition format.
//
// extra:output
func (db *DB) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := db.MetricsSnapshot().WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// statzDoc is the /statz JSON document: one coherent stats snapshot
// across the metrics registry, the buffer pool and the tracer.
type statzDoc struct {
	Metrics MetricsSnapshot `json:"metrics"`
	Pool    PoolStats       `json:"pool"`
	Tracer  TracerStats     `json:"tracer"`
}

// handleStatz serves the stats snapshot as JSON. Map keys marshal in
// sorted order, so the document is deterministic for a given state.
//
// extra:output
func (db *DB) handleStatz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, statzDoc{
		Metrics: db.MetricsSnapshot(),
		Pool:    db.PoolStats(),
		Tracer:  db.tracer.Stats(),
	})
}

// handleSlow serves the slow-query ring, oldest first.
//
// extra:output
func (db *DB) handleSlow(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, db.SlowQueries())
}

// traceIndexEntry is one row of the /traces index.
type traceIndexEntry struct {
	ID      uint64        `json:"id"`
	Src     string        `json:"src"`
	Session int64         `json:"session"`
	Kind    string        `json:"kind"`
	Rows    int           `json:"rows"`
	Dur     time.Duration `json:"dur_ns"`
}

// handleTraces serves the retained-trace index at /traces and one trace
// as Chrome trace_event JSON at /traces/{id} (or /traces/last) —
// loadable directly in chrome://tracing or Perfetto.
//
// extra:output
func (db *DB) handleTraces(w http.ResponseWriter, r *http.Request) {
	rest := strings.Trim(strings.TrimPrefix(r.URL.Path, "/traces"), "/")
	if rest == "" {
		trs := db.Traces()
		idx := make([]traceIndexEntry, 0, len(trs))
		for _, tr := range trs {
			idx = append(idx, traceIndexEntry{
				ID: tr.ID, Src: strings.TrimSpace(tr.Src), Session: tr.Session,
				Kind: tr.Kind, Rows: tr.Rows, Dur: tr.Dur,
			})
		}
		writeJSON(w, idx)
		return
	}
	var tr *Trace
	if rest == "last" {
		tr = db.LastTrace()
	} else {
		id, err := strconv.ParseUint(rest, 10, 64)
		if err != nil {
			http.Error(w, "trace id must be an integer", http.StatusBadRequest)
			return
		}
		tr = db.TraceByID(id)
	}
	if tr == nil {
		http.Error(w, "no such trace (aged out of the ring?)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := trace.WriteChrome(w, tr); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeJSON writes v as indented JSON with the right content type.
//
// extra:output
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
