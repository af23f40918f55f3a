package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"time"
)

// ServerOptions configures an introspection Server. Every field is
// optional; endpoints whose backing source is absent answer 404.
type ServerOptions struct {
	// Registry backs /metrics.
	Registry *Registry
	// Tracer backs /requests (the tail-sampled request reservoir) and
	// /trace (the kept requests' span trees as Chrome trace-event
	// JSON).
	Tracer *Tracer
	// Snapshot, when non-nil, backs /events: it is called once a second
	// and the result streamed as an SSE frame (the proxy serves
	// periodic serving-stats snapshots).
	Snapshot func() any
	// BuildMeta is merged into the /buildinfo document (e.g. the
	// command name and flags), alongside the binary's build stamp.
	BuildMeta map[string]any
	// Extra mounts additional handlers on the admin mux (e.g. the
	// proxy's sampled access log at /accesslog).
	Extra map[string]http.Handler
}

// Server is the embeddable HTTP introspection surface: /metrics,
// /healthz, /buildinfo, /events (SSE), /trace and /debug/pprof/*. It
// is served on a dedicated admin address (never the traffic listener),
// so exposing pprof here leaks nothing to cache clients. The serving
// path is untouched when no Server is constructed, and /metrics reads
// each count at scrape time from the component that owns it.
type Server struct {
	opts ServerOptions
	mux  *http.ServeMux
	// snapshotInterval is the /events poll period: snapshotPeriod,
	// shortened by tests.
	snapshotInterval time.Duration

	http      *http.Server
	closeOnce sync.Once
	done      chan struct{} // closed on Close; unblocks SSE handlers
	wg        sync.WaitGroup
}

// NewServer builds the introspection surface. Use Handler to embed it
// in an existing mux, or Start/Close to serve it on its own listener.
func NewServer(opts ServerOptions) *Server {
	s := &Server{opts: opts, mux: http.NewServeMux(), snapshotInterval: snapshotPeriod, done: make(chan struct{})}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/buildinfo", s.handleBuildinfo)
	s.mux.HandleFunc("/events", s.handleEvents)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/requests", s.handleRequests)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for path, h := range opts.Extra {
		s.mux.Handle(path, h)
	}
	return s
}

// Handler returns the admin mux for embedding or testing.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr and serves in the background, returning the
// bound address (useful with ":0"). Call Close to stop.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on admin address %q: %w", addr, err)
	}
	s.http = &http.Server{Handler: s.mux}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.http.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return ln.Addr(), nil
}

// Close stops the server: SSE streams are released first (they watch
// the done channel), then the listener drains. Idempotent; a Server
// that was never Started closes trivially.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { close(s.done) })
	if s.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	s.wg.Wait()
	return err
}

// handleIndex lists the mounted endpoints — the curl entry point.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	paths := []string{"/healthz", "/metrics", "/metrics?format=json", "/buildinfo", "/events", "/trace", "/requests", "/debug/pprof/"}
	for p := range s.opts.Extra {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "webcache introspection endpoints:")
	for _, p := range paths {
		fmt.Fprintln(w, " ", p)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// handleMetrics serves the registry: sorted "name value" text by
// default, the full structured form (counters, gauges, histograms with
// buckets and quantiles) with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.opts.Registry
	if reg == nil {
		http.Error(w, "no metric registry attached", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{
			"metrics":    reg.Snapshot(),
			"histograms": reg.HistogramSnapshot(),
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	reg.WriteText(w)
}

func (s *Server) handleBuildinfo(w http.ResponseWriter, r *http.Request) {
	b := BuildInfo()
	doc := map[string]any{
		"path":       b.Path,
		"version":    b.Version,
		"go_version": b.GoVersion,
		"revision":   b.Revision,
		"dirty":      b.Dirty,
		"vcs_time":   b.Time,
		"git_rev":    GitRev(),
	}
	for k, v := range s.opts.BuildMeta {
		doc[k] = v
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// handleTrace exports the tracer's kept request span trees as Chrome
// trace-event JSON — save it and load the file in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.opts.Tracer == nil {
		http.Error(w, "no request tracer attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.opts.Tracer.WriteChromeTrace(w)
}

// handleRequests serves the request tracer's tail-sampled reservoir:
// the slowest and flagged requests with their per-phase timelines.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	if s.opts.Tracer == nil {
		http.Error(w, "no request tracer attached", http.StatusNotFound)
		return
	}
	s.opts.Tracer.Handler().ServeHTTP(w, r)
}

// snapshotPeriod is how often /events sends a Snapshot frame.
const snapshotPeriod = time.Second

// handleEvents streams live state as server-sent events: one
// `data: <json>` frame of Snapshot per snapshotPeriod. The handler
// exits — releasing its goroutine — when the client disconnects or the
// server closes, whichever comes first; the leak test pins this.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.opts.Snapshot == nil {
		http.Error(w, "no event source attached", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	t := time.NewTicker(s.snapshotInterval)
	defer t.Stop()
	// An immediate first frame, so one-shot consumers (curl -m 1, the
	// smoke tests) see data without waiting a full interval.
	if !writeSSE(w, fl, s.opts.Snapshot()) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case <-t.C:
			if !writeSSE(w, fl, s.opts.Snapshot()) {
				return
			}
		}
	}
}

// writeSSE writes one SSE data frame; false means the client is gone.
func writeSSE(w io.Writer, fl http.Flusher, v any) bool {
	data, err := json.Marshal(v)
	if err != nil {
		return false
	}
	if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
		return false
	}
	fl.Flush()
	return true
}
