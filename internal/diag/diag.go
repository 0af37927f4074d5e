// Package diag is the opt-in live-diagnostics HTTP server: commands that
// run simulations (ndbench, ndperf, ndsim) expose their telemetry
// registry, run configuration, live trial progress and the standard Go
// profiling endpoints on a local address for the duration of the run.
//
// The package is a thin serving skeleton over seams that already exist —
// telemetry.Registry for /metrics, harness.Progress for /progress, expvar
// and net/http/pprof for the debug endpoints. Attaching it never changes
// results: the server only reads snapshots, and the progress stream is fed
// with non-blocking sends, so a slow (or hostile) client can stall nothing.
//
// Endpoints:
//
//	/         index of the endpoints below (text)
//	/metrics  Prometheus text exposition of the telemetry registry
//	/runinfo  run configuration, seed and build info (JSON)
//	/progress NDJSON stream: one snapshot record, then live per-trial
//	          completion records until the client disconnects
//	/debug/vars   expvar JSON (the Go runtime's memstats and cmdline)
//	/debug/pprof  CPU, heap, goroutine, … profiles
package diag

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"

	"m2hew/internal/harness"
	"m2hew/internal/telemetry"
)

// RunInfo describes the run the server is attached to; served as JSON at
// /runinfo with build information appended.
type RunInfo struct {
	// Command is the serving command's name (ndbench, ndperf, ndsim).
	Command string `json:"command"`
	// Args are the command's arguments as invoked.
	Args []string `json:"args,omitempty"`
	// Seed is the run's root seed.
	Seed int64 `json:"seed"`
	// Scenario is the command-specific run configuration (experiment
	// selection, run config struct, …); any JSON-marshalable value.
	Scenario any `json:"scenario,omitempty"`
}

// runInfoPayload is the /runinfo response body.
type runInfoPayload struct {
	RunInfo
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Module    string `json:"module,omitempty"`
	BuildVCS  string `json:"vcs_revision,omitempty"`
}

// Config wires a server to a run's observability state. Every field is
// optional: a nil Registry serves an empty /metrics, a nil Progress
// serves a /progress stream that only ever reports an empty snapshot.
type Config struct {
	// Registry backs /metrics.
	Registry *telemetry.Registry
	// Progress backs /progress.
	Progress *harness.Progress
	// Info backs /runinfo.
	Info RunInfo
}

// Server is a running diagnostics server. Create one with Serve; shut it
// down with Close.
type Server struct {
	lis net.Listener
	srv *http.Server
}

// Handler builds the diagnostics mux for cfg — exported separately from
// Serve so nddserve (and tests) can mount it under their own server.
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "m2hew diagnostics\n\n/metrics\n/runinfo\n/progress\n/debug/vars\n/debug/pprof/\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if cfg.Registry != nil {
			telemetry.WritePrometheus(w, cfg.Registry)
		}
	})
	mux.HandleFunc("/runinfo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(buildRunInfo(cfg.Info))
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		serveProgress(w, r, cfg.Progress)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// buildRunInfo appends build identification to the caller-supplied info.
func buildRunInfo(info RunInfo) runInfoPayload {
	p := runInfoPayload{
		RunInfo:   info,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		p.Module = bi.Main.Path
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				p.BuildVCS = s.Value
			}
		}
	}
	return p
}

// serveProgress streams NDJSON progress records: first the current
// snapshot (so a client connecting after the run finished still gets one
// record), then live per-trial completions, flushed per line, until the
// client disconnects.
func serveProgress(w http.ResponseWriter, r *http.Request, prog *harness.Progress) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	if prog == nil {
		enc.Encode(harness.ProgressSnapshot{}.Record(0))
		if flusher != nil {
			flusher.Flush()
		}
		return
	}
	ch, cancel := prog.Subscribe(64)
	defer cancel()
	// Snapshot after subscribing: every completion is then visible either
	// in the snapshot or as a live record (records already counted when we
	// snapshot may also arrive live; Seq lets clients deduplicate).
	if err := enc.Encode(prog.Snapshot().Record(prog.Seq())); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	for {
		select {
		case rec, ok := <-ch:
			if !ok {
				return
			}
			if err := enc.Encode(rec); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// Serve starts a diagnostics server on addr (host:port; use port 0 for an
// ephemeral port and read the result from Addr). The server runs until
// Close.
func Serve(addr string, cfg Config) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("diag: listen %s: %w", addr, err)
	}
	s := &Server{
		lis: lis,
		srv: &http.Server{Handler: Handler(cfg), ReadHeaderTimeout: 10 * time.Second},
	}
	go s.srv.Serve(lis) //nolint:errcheck // Serve always returns ErrServerClosed after Close
	return s, nil
}

// Addr returns the server's listen address (useful with port 0).
func (s *Server) Addr() string { return s.lis.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the server down immediately, dropping open streams.
func (s *Server) Close() error { return s.srv.Close() }
