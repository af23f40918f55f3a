// Command proxy runs the live HTTP caching proxy with a configurable
// removal policy — the deployable counterpart of the paper's simulator.
// Point HTTP clients at it as their proxy (http_proxy=http://host:port/)
// or use it reverse-proxy style with origin-form requests.
//
// Usage:
//
//	proxy -listen :3128 -capacity 64MiB -policy SIZE
//	proxy -listen :3128 -parent http://upstream:3128 -policy LRU-MIN
//	proxy -listen :3128 -icp :3130 -siblings peer:3130=http://peer:3128
//	proxy -listen :3128 -accesslog /var/log/webcache/access.log
//	proxy -listen :3128 -admin :8081
//	proxy -listen :3128 -admin :8081 -shadow "LRU,SIZE,LFU"   # ghost-cache policy comparison on /shadow
//	proxy -listen :3128 -admin :8081 -trace-sample 100        # per-request span timelines on /requests
//
// The process's soft memory limit follows -capacity (see memoryLimit)
// unless GOMEMLIMIT is set.
//
// GET /._webcache/stats on the listen address reports statistics,
// including a memory section read from runtime/metrics. With
// -admin, a separate introspection listener serves /metrics, /healthz,
// /buildinfo, /events (SSE serving-stats snapshots), /trace (Chrome
// trace-event JSON of recent cache events — and, with -trace-sample,
// sampled request span trees), /requests (the tail-sampled slowest and
// flagged request timelines), /accesslog (recent sampled lines) and
// /debug/pprof/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"webcache/internal/obs"
	"webcache/internal/origin"
	"webcache/internal/policy"
	"webcache/internal/proxy"
)

// eventRingSize is the admin trace window: the most recent cache
// events kept for /trace. 64Ki events ≈ a few MB, hours of typical
// 1995-scale traffic.
const eventRingSize = 1 << 16

// options carries the parsed flag set; a struct so tests can exercise
// the full wiring without a process.
type options struct {
	capacity  int64
	polSpec   string
	parent    string
	freshFor  time.Duration
	icpAddr   string
	siblings  string
	logPath   string
	logSample int
	admin     bool // build the admin surface (main Starts it on -admin ADDR)

	// shadow lists candidate removal policies (comma-separated specs)
	// to run as metadata-only ghost caches beside the deployed store;
	// empty runs no fleet.
	shadow string

	// traceSample enables request-lifecycle tracing: every nth request
	// is recorded as a per-phase span timeline and the tail reservoir
	// keeps the traceSlowest slowest per window plus every errored /
	// missed / evicting request (/requests on the admin address). 0 —
	// the default — builds no tracer; the serving path keeps its one
	// nil check.
	traceSample  int
	traceSlowest int
}

// app is a fully wired proxy: traffic mux, optional admin surface, and
// the resources Close releases.
type app struct {
	store  *proxy.Store
	srv    *proxy.Server
	logger *proxy.AccessLogger // nil unless -accesslog or -admin
	mux    http.Handler        // traffic listener handler

	reg    *obs.Registry      // nil unless admin
	ring   *obs.EventRing     // nil unless admin
	window *obs.WindowedRate  // the store's recent-window hit rate; nil unless admin
	tracer *obs.Tracer        // nil unless -trace-sample > 0
	admin  *obs.Server        // nil unless admin; caller Starts/Closes
	fleet  *proxy.ShadowFleet // nil unless -shadow

	responder *proxy.ICPResponder
	logFile   *os.File
}

// buildApp wires the proxy from options. The admin server is built but
// not started; callers serve a.mux on the traffic address and, when
// a.admin is non-nil, Start it on the admin address.
func buildApp(o options) (*app, error) {
	dayStart := time.Now().Unix() / 86400 * 86400
	pol, err := policy.Parse(o.polSpec, dayStart)
	if err != nil {
		return nil, err
	}
	// One store, one lock, one eviction order over the whole capacity:
	// the policy ranks every resident document, as the simulator does.
	// The map and policy pre-sizing assumes the trace-typical ~16 KiB
	// mean document.
	a := &app{store: proxy.NewStore(o.capacity, pol)}
	a.store.Reserve(int(o.capacity / (16 << 10)))
	a.srv = proxy.New(a.store)
	a.srv.FreshFor = o.freshFor

	if o.parent != "" {
		pu, err := url.Parse(o.parent)
		if err != nil {
			return nil, fmt.Errorf("bad parent URL: %w", err)
		}
		a.srv.Transport = origin.NewClient(pu)
		log.Printf("chaining to parent proxy %s", pu)
	}

	if o.icpAddr != "" {
		a.responder, err = proxy.NewICPResponder(a.store, o.icpAddr)
		if err != nil {
			return nil, err
		}
		log.Printf("answering ICP queries on %s", a.responder.Addr())
	}
	if o.siblings != "" {
		for _, pair := range strings.Split(o.siblings, ",") {
			icpPart, httpPart, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				a.Close()
				return nil, fmt.Errorf("bad sibling %q (want icpHost:port=httpURL)", pair)
			}
			a.srv.Siblings = append(a.srv.Siblings, proxy.Sibling{ICPAddr: icpPart, Proxy: httpPart})
		}
		a.srv.ICP.Timeout = 100 * time.Millisecond
		log.Printf("querying %d ICP siblings before origin fetches", len(a.srv.Siblings))
	}

	// The access logger runs when a log file is requested, and also —
	// retain-only, no file — when the admin surface needs its
	// /accesslog sample.
	var logW *os.File
	if o.logPath != "" {
		logW, err = os.OpenFile(o.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			a.Close()
			return nil, err
		}
		a.logFile = logW
		log.Printf("writing access log to %s", o.logPath)
	}
	var root http.Handler = a.srv
	if logW != nil || o.admin {
		if logW != nil {
			a.logger = proxy.NewAccessLogger(a.srv, logW)
		} else {
			a.logger = proxy.NewAccessLogger(a.srv, nil)
		}
		a.logger.SetSample(o.logSample)
		root = a.logger
	}

	// The shadow fleet rides beside the store: one ghost cache per
	// candidate policy at the deployed capacity, fed by a single
	// non-blocking enqueue per successful GET.
	if o.shadow != "" {
		var specs []string
		for _, s := range strings.Split(o.shadow, ",") {
			if s = strings.TrimSpace(s); s != "" {
				specs = append(specs, s)
			}
		}
		a.fleet, err = proxy.NewShadowFleet(proxy.ShadowOptions{
			Policies: specs,
			Capacity: o.capacity,
			DayStart: dayStart,
		})
		if err != nil {
			a.Close()
			return nil, err
		}
		a.srv.Shadow = a.fleet
		log.Printf("shadowing %d candidate policies: %s",
			len(a.fleet.Policies()), strings.Join(a.fleet.Policies(), ", "))
	}

	// Request-lifecycle tracing: sampled per-phase span timelines with a
	// tail reservoir (K slowest per window + every errored/missed/
	// evicting request). Off by default; the proxy's untraced cost is
	// one nil check per request.
	if o.traceSample > 0 {
		a.tracer = obs.NewTracer(obs.TracerOptions{
			SampleEvery: o.traceSample,
			SlowestK:    o.traceSlowest,
		})
		a.srv.Tracer = a.tracer
		log.Printf("tracing 1 in %d requests (keeping %d slowest per window)",
			o.traceSample, o.traceSlowest)
	}

	if o.admin {
		a.reg = obs.NewRegistry()
		a.ring = obs.NewEventRing(eventRingSize)
		a.srv.RegisterMetrics(a.reg)
		a.store.RegisterMetrics(a.reg)
		hooks, window := proxy.StoreHooks(a.reg, a.ring)
		a.store.SetHooks(hooks)
		a.window = window
		registerMemoryGauges(a.reg)
		extra := map[string]http.Handler{
			"/accesslog": a.logger.Handler(),
		}
		if a.fleet != nil {
			a.fleet.RegisterMetrics(a.reg)
			extra["/shadow"] = a.fleet.Handler()
		}
		if a.tracer != nil {
			a.tracer.RegisterMetrics(a.reg, "proxy")
		}
		a.admin = obs.NewServer(obs.ServerOptions{
			Registry:         a.reg,
			Ring:             a.ring,
			Tracer:           a.tracer,
			Snapshot:         a.snapshot,
			SnapshotInterval: time.Second,
			BuildMeta: map[string]any{
				"cmd":    "proxy",
				"policy": pol.Name(),
			},
			Extra: extra,
		})
	}

	// Only the origin-form request line "GET /._webcache/stats" reaches
	// the stats page. Everything else goes to the proxy as it came: no
	// path cleaning or redirects, which would rewrite the URL a client
	// asked an origin for.
	a.mux = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || r.RequestURI != statsPath {
			root.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(a.snapshot())
	})
	return a, nil
}

// statsPath is where the traffic listener serves the stats document.
const statsPath = "/._webcache/stats"

// snapshot is the serving-stats document: the /._webcache/stats body
// and the admin /events SSE frame.
func (a *app) snapshot() any {
	doc := map[string]any{
		"proxy":  a.srv.Stats(),
		"store":  a.store.Stats(),
		"memory": readMemory(),
	}
	if a.window != nil {
		// Recent-window hit rate for the deployed store: the store.*
		// lifetime counters tell you since-boot; this is the last
		// minute.
		hits, gets := a.window.WindowCounts()
		hr := 0.0
		if gets > 0 {
			hr = float64(hits) / float64(gets)
		}
		doc["store_window"] = map[string]any{"gets": gets, "hits": hits, "hr": hr}
	}
	if a.fleet != nil {
		doc["shadow"] = a.fleet.Report()
	}
	if a.responder != nil {
		q, h := a.responder.Stats()
		doc["icp"] = map[string]int64{"queries": q, "hits": h}
	}
	return doc
}

// Close releases everything buildApp opened, in dependency order: the
// shadow fleet stops its drain worker (no more ghost-cache writes),
// then the admin server — whose handlers read the fleet — shuts down,
// then the network and file resources. Every step is idempotent and nil-safe, so Close is
// safe after a partial buildApp failure and after a prior Close.
func (a *app) Close() {
	if a.fleet != nil {
		a.fleet.Close()
	}
	if a.admin != nil {
		a.admin.Close()
	}
	if a.responder != nil {
		a.responder.Close()
	}
	if a.srv != nil {
		a.srv.CloseIdleConnections()
	}
	if a.logger != nil {
		a.logger.Flush()
	}
	if a.logFile != nil {
		a.logFile.Close()
	}
}

func main() {
	var (
		listen    = flag.String("listen", ":3128", "address to listen on")
		capFlag   = flag.String("capacity", "64MiB", "cache capacity (bytes, or with KiB/MiB/GiB suffix)")
		polSpec   = flag.String("policy", "SIZE", "removal policy (SIZE, LRU, LFU, LRU-MIN, Hyper-G, key1/key2, ...)")
		parent    = flag.String("parent", "", "optional parent proxy URL (second-level cache)")
		freshFor  = flag.Duration("fresh", 5*time.Minute, "serve cached objects this long before revalidating")
		icpAddr   = flag.String("icp", "", "UDP address to answer ICP sibling queries on (e.g. :3130)")
		siblings  = flag.String("siblings", "", "comma-separated sibling list as icpHost:port=httpURL pairs")
		logPath   = flag.String("accesslog", "", "write a common-log-format access log to this file")
		logSample = flag.Int("log-sample", 1, "log every nth request (1 = all); a sampled log (n > 1) is not a trace of the traffic and must not be replayed through the simulator as one")
		adminAddr = flag.String("admin", "", "serve the introspection endpoints on this address (e.g. :8081)")

		shadowSpec = flag.String("shadow", "", "comma-separated candidate policies to run as ghost caches (e.g. \"LRU,SIZE,LFU\"); /shadow on the admin address reports their window HR/WHR and regret")

		traceSample  = flag.Int("trace-sample", 0, "trace every nth request's phase timeline (0 = off); /requests on the admin address shows the kept tail")
		traceSlowest = flag.Int("trace-slowest", 16, "keep this many slowest traced requests per window (plus every errored/missed/evicting one)")
	)
	flag.Parse()

	capacity, err := parseBytes(*capFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proxy:", err)
		os.Exit(2)
	}
	if limit, derived := applyMemoryLimit(capacity, os.Getenv, debug.SetMemoryLimit); derived {
		log.Printf("memory limit %.1f MiB, from -capacity (set GOMEMLIMIT to override)", float64(limit)/(1<<20))
	} else {
		log.Printf("memory limit %d bytes, from GOMEMLIMIT", limit)
	}
	a, err := buildApp(options{
		capacity:  capacity,
		polSpec:   *polSpec,
		parent:    *parent,
		freshFor:  *freshFor,
		icpAddr:   *icpAddr,
		siblings:  *siblings,
		logPath:   *logPath,
		logSample: *logSample,
		admin:     *adminAddr != "",

		shadow: *shadowSpec,

		traceSample:  *traceSample,
		traceSlowest: *traceSlowest,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "proxy:", err)
		os.Exit(2)
	}

	if a.admin != nil {
		addr, err := a.admin.Start(*adminAddr)
		if err != nil {
			a.Close()
			fmt.Fprintln(os.Stderr, "proxy:", err)
			os.Exit(2)
		}
		log.Printf("introspection endpoints on http://%s/ (metrics, healthz, events, trace, pprof)", addr)
	}

	log.Printf("caching proxy on %s: capacity=%s policy=%s", *listen, *capFlag, *polSpec)

	// Serve until SIGTERM/SIGINT, then shut down deterministically:
	// stop accepting traffic, drain in-flight requests, and only then
	// Close the app (shadow fleet → admin → ICP → log) so nothing is
	// torn down while requests might still touch it.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		a.Close()
		log.Fatal(err)
	}
	traffic := proxy.NewConnServer(a.mux)
	errc := make(chan error, 1)
	go func() { errc <- traffic.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("received %s, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := traffic.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		cancel()
		a.Close()
	case err := <-errc:
		a.Close()
		log.Fatal(err)
	}
}

// parseBytes parses "1048576", "64MiB", "1.5GiB", etc.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	mult := int64(1)
	for suffix, m := range map[string]int64{
		"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30,
		"KB": 1000, "MB": 1000_000, "GB": 1000_000_000,
	} {
		if strings.HasSuffix(s, suffix) {
			mult = m
			s = strings.TrimSuffix(s, suffix)
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad capacity %q", s)
	}
	return int64(v * float64(mult)), nil
}
