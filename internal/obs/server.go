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

// Broadcaster fans values out to event-stream subscribers. Publishing
// never blocks: a subscriber whose buffer is full misses that value
// (SSE consumers are monitors, not databases — the JSONL metric stream
// is the lossless record).
type Broadcaster struct {
	mu   sync.Mutex
	subs map[int]chan any
	next int
}

// NewBroadcaster returns an empty broadcaster.
func NewBroadcaster() *Broadcaster {
	return &Broadcaster{subs: make(map[int]chan any)}
}

// Publish delivers v to every subscriber with buffer room.
func (b *Broadcaster) Publish(v any) {
	b.mu.Lock()
	for _, ch := range b.subs {
		select {
		case ch <- v:
		default:
		}
	}
	b.mu.Unlock()
}

// Subscribe registers a subscriber with the given buffer size (min 1)
// and returns its channel plus a cancel function. Cancel is idempotent
// and must be called when the subscriber goes away, or the broadcaster
// retains the channel forever.
func (b *Broadcaster) Subscribe(buffer int) (<-chan any, func()) {
	if buffer < 1 {
		buffer = 1
	}
	ch := make(chan any, buffer)
	b.mu.Lock()
	id := b.next
	b.next++
	b.subs[id] = ch
	b.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			delete(b.subs, id)
			b.mu.Unlock()
		})
	}
	return ch, cancel
}

// ServerOptions configures an introspection Server. Every field is
// optional; endpoints whose backing source is absent answer 404.
type ServerOptions struct {
	// Registry backs /metrics.
	Registry *Registry
	// Ring backs /trace (Chrome trace-event JSON of recent cache events).
	Ring *EventRing
	// Tracer backs /requests (the tail-sampled request reservoir) and
	// joins /trace: with both sources the export is the combined view —
	// the ring's residency spans on pid 1, request span trees on pid 2.
	Tracer *Tracer
	// Events, when non-nil, is the push source for /events: every
	// published value becomes one SSE data frame (websim publishes
	// ReplaySnapshots as replays finish).
	Events *Broadcaster
	// Snapshot, when non-nil, is the poll source for /events: it is
	// called every SnapshotInterval and the result streamed as an SSE
	// frame (the proxy serves periodic serving-stats snapshots). Push
	// and poll sources compose; either alone enables /events.
	Snapshot func() any
	// SnapshotInterval is the poll period for Snapshot (default 1s).
	SnapshotInterval time.Duration
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
// path is untouched when no Server is constructed — the whole surface
// reads the same lock-free primitives the hooks write, so scraping
// /metrics never perturbs the cache it describes.
type Server struct {
	opts ServerOptions
	mux  *http.ServeMux

	http      *http.Server
	closeOnce sync.Once
	done      chan struct{} // closed on Close; unblocks SSE handlers
	wg        sync.WaitGroup
}

// NewServer builds the introspection surface. Use Handler to embed it
// in an existing mux, or Start/Close to serve it on its own listener.
func NewServer(opts ServerOptions) *Server {
	s := &Server{opts: opts, mux: http.NewServeMux(), done: make(chan struct{})}
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

// handleTrace exports the event ring as Chrome trace-event JSON — save
// it and load the file in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.opts.Ring == nil && s.opts.Tracer == nil {
		http.Error(w, "no event ring attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	WriteCombinedChromeTrace(w, s.opts.Ring, s.opts.Tracer)
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

// handleEvents streams live state as server-sent events: one
// `data: <json>` frame per published value (push source) and/or per
// SnapshotInterval (poll source). The handler exits — releasing its
// goroutine — when the client disconnects or the server closes,
// whichever comes first; the leak test pins this.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.opts.Events == nil && s.opts.Snapshot == nil {
		http.Error(w, "no event source attached", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	// Subscribe before the headers go out: the client takes the flushed
	// headers as "subscribed", so nothing published after it has them
	// may be missed.
	var sub <-chan any // nil channel: select case blocks forever
	if s.opts.Events != nil {
		ch, cancel := s.opts.Events.Subscribe(64)
		defer cancel()
		sub = ch
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var tick <-chan time.Time
	if s.opts.Snapshot != nil {
		interval := s.opts.SnapshotInterval
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		tick = t.C
		// An immediate first frame, so one-shot consumers (curl -m 1,
		// the smoke tests) see data without waiting a full interval.
		if !writeSSE(w, fl, s.opts.Snapshot()) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			// Deliver what was published before the shutdown.
			for {
				select {
				case v := <-sub:
					if !writeSSE(w, fl, v) {
						return
					}
				default:
					return
				}
			}
		case v := <-sub:
			if !writeSSE(w, fl, v) {
				return
			}
		case <-tick:
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
