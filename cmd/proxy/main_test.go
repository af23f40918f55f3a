package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/core"
	"webcache/internal/obs"
	"webcache/internal/origin"
	"webcache/internal/policy"
	"webcache/internal/proxy"
	"webcache/internal/sim"
	"webcache/internal/workload"
)

func TestParseBytes(t *testing.T) {
	good := map[string]int64{
		"1048576": 1048576,
		"64MiB":   64 << 20,
		"1.5GiB":  3 << 29,
		"10KiB":   10 << 10,
		"2GB":     2_000_000_000,
		"500KB":   500_000,
		" 3MB ":   3_000_000,
	}
	for in, want := range good {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "abc", "-5", "0", "MiB"} {
		if _, err := parseBytes(in); err == nil {
			t.Errorf("parseBytes(%q) accepted", in)
		}
	}
}

// TestAdminEndToEnd wires the full cmd/proxy app with the admin
// surface on, proxies real traffic through it, and checks every admin
// endpoint — with the metric counters agreeing with the access log.
func TestAdminEndToEnd(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "<html>%s</html>", r.URL.Path)
	}))
	defer origin.Close()

	a, err := buildApp(options{
		capacity: 1 << 20,
		polSpec:  "SIZE",
		freshFor: time.Hour,
		admin:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	traffic := serveTraffic(t, a.mux)
	defer traffic.Close()
	adminAddr, err := a.admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminURL := "http://" + adminAddr.String()

	// Proxy traffic: three distinct documents, one of them re-fetched
	// twice more → 5 requests, 2 hits, 3 origin fetches.
	fetch := func(path string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, traffic.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Host = strings.TrimPrefix(origin.URL, "http://")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/a.html", "/b.html", "/c.html", "/a.html", "/a.html"} {
		fetch(path)
	}

	body, status := adminGet(t, adminURL+"/healthz")
	if status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", status, body)
	}

	// /metrics counters must match both the proxy's own stats and the
	// access log's line count.
	body, status = adminGet(t, adminURL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}
	st := a.srv.Stats()
	if st.Requests != 5 || st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 5 requests / 2 hits / 3 misses", st)
	}
	wantLines := []string{
		fmt.Sprintf("proxy.requests %d", st.Requests),
		fmt.Sprintf("proxy.hits %d", st.Hits),
		fmt.Sprintf("proxy.misses %d", st.Misses),
		"proxy.origin_fetches 3",
		"proxy.latency_ns.count 5",
		"proxy.latency_ns.p50 ",
		"proxy.latency_ns.p99 ",
		"store.inserts 3",
		"runtime.memory_limit_bytes ",
		"runtime.heap_live_bytes ",
		"runtime.heap_goal_bytes ",
		"runtime.mapped_bytes ",
		"runtime.gc_cycles ",
	}
	for _, want := range wantLines {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	if got := a.logger.Lines(); got != uint64(st.Requests) {
		t.Errorf("access log has %d lines, proxy served %d requests", got, st.Requests)
	}

	// The access-log sample endpoint serves the same lines.
	body, status = adminGet(t, adminURL+"/accesslog")
	if status != http.StatusOK || strings.Count(body, "\n") != int(st.Requests) {
		t.Errorf("accesslog = %d with %d lines, want %d", status, strings.Count(body, "\n"), st.Requests)
	}

	// Without -trace-sample there is no request tracer, so /trace has
	// nothing to serve.
	if _, status := adminGet(t, adminURL+"/trace"); status != http.StatusNotFound {
		t.Errorf("trace without -trace-sample = %d, want 404", status)
	}

	// /events streams serving-stats snapshots; the first frame arrives
	// immediately and reflects the traffic above.
	resp, err := http.Get(adminURL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	deadline := time.Now().Add(5 * time.Second)
	var frame string
	for time.Now().Before(deadline) {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		if strings.HasPrefix(line, "data: ") {
			frame = strings.TrimSpace(strings.TrimPrefix(line, "data: "))
			break
		}
	}
	var snap struct {
		Proxy struct{ Requests, Hits int64 }
		Store struct{ Docs int64 }
	}
	if err := json.Unmarshal([]byte(frame), &snap); err != nil {
		t.Fatalf("SSE frame unparsable: %v\n%s", err, frame)
	}
	if snap.Proxy.Requests != 5 || snap.Proxy.Hits != 2 || snap.Store.Docs != 3 {
		t.Errorf("SSE snapshot = %+v, want 5 requests / 2 hits / 3 docs", snap)
	}

	// pprof and buildinfo answer on the same mux.
	if _, status := adminGet(t, adminURL+"/debug/pprof/"); status != http.StatusOK {
		t.Errorf("pprof status = %d", status)
	}
	body, status = adminGet(t, adminURL+"/buildinfo")
	if status != http.StatusOK || !strings.Contains(body, `"cmd": "proxy"`) {
		t.Errorf("buildinfo = %d %q", status, body)
	}

	// The traffic listener still serves its legacy stats endpoint.
	body, status = adminGet(t, traffic.URL+"/._webcache/stats")
	if status != http.StatusOK || !strings.Contains(body, `"Requests": 5`) {
		t.Errorf("legacy stats = %d %q", status, body)
	}
	// Its memory section comes from runtime/metrics: a live heap under its
	// goal and inside what the process has mapped, and a limit.
	var stats struct{ Memory map[string]int64 }
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("stats unparsable: %v", err)
	}
	m := stats.Memory
	if m["heap_live_bytes"] > m["heap_goal_bytes"] || m["heap_live_bytes"] > m["mapped_bytes"] ||
		m["mapped_bytes"] <= 0 || m["memory_limit_bytes"] <= 0 {
		t.Errorf("stats memory section = %v", m)
	}
	if len(m) != len(memoryMetrics) {
		t.Errorf("stats memory section has %d values, want %d: %v", len(m), len(memoryMetrics), m)
	}
}

// TestBuildAppWithoutAdmin pins the default path: no registry (so no
// store window), no admin server, no access logger — the
// pre-observability wiring byte for byte.
func TestBuildAppWithoutAdmin(t *testing.T) {
	a, err := buildApp(options{capacity: 1 << 20, polSpec: "LRU", freshFor: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.admin != nil || a.reg != nil || a.logger != nil {
		t.Fatal("admin machinery built without -admin")
	}
}

// TestAdminMetricNames pins the admin registry's metric names: a name
// dashboards and the CI smoke read must not vanish or change when the
// component that counts it changes.
func TestAdminMetricNames(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html>doc</html>")
	}))
	defer origin.Close()
	a, err := buildApp(options{capacity: 1 << 20, polSpec: "SIZE", freshFor: time.Hour, admin: true, shadow: "LRU,SIZE"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	traffic := serveTraffic(t, a.mux)
	for _, want := range []string{"MISS", "HIT"} {
		req, err := http.NewRequest(http.MethodGet, traffic.URL+"/a.html", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Host = strings.TrimPrefix(origin.URL, "http://")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Fatalf("X-Cache = %q, want %q", got, want)
		}
	}

	var got []string
	for name := range a.reg.Snapshot() {
		got = append(got, name)
	}
	slices.Sort(got)
	want := []string{
		"proxy.bytes_from_hit",
		"proxy.bytes_served",
		"proxy.errors",
		"proxy.hits",
		"proxy.icp_queries",
		"proxy.icp_replies",
		"proxy.misses",
		"proxy.origin_bytes",
		"proxy.origin_fetches",
		"proxy.requests",
		"proxy.revalidated",
		"proxy.sibling_hits",
		"proxy.uncacheable",
		"runtime.gc_cycles",
		"runtime.heap_goal_bytes",
		"runtime.heap_live_bytes",
		"runtime.mapped_bytes",
		"runtime.memory_limit_bytes",
		"store.evicted_bytes",
		"store.evictions",
		"store.hits",
		"store.inserts",
		"store.misses",
		"store.shadow.LRU.docs",
		"store.shadow.LRU.evictions",
		"store.shadow.LRU.hits",
		"store.shadow.LRU.regret_bp",
		"store.shadow.LRU.requests",
		"store.shadow.LRU.used_bytes",
		"store.shadow.LRU.window_hr_bp",
		"store.shadow.LRU.window_whr_bp",
		"store.shadow.SIZE.docs",
		"store.shadow.SIZE.evictions",
		"store.shadow.SIZE.hits",
		"store.shadow.SIZE.regret_bp",
		"store.shadow.SIZE.requests",
		"store.shadow.SIZE.used_bytes",
		"store.shadow.SIZE.window_hr_bp",
		"store.shadow.SIZE.window_whr_bp",
		"store.shadow.processed",
		"store.window_gets",
		"store.window_hits",
		"store.window_hr_bp",
	}
	if !slices.Equal(got, want) {
		t.Errorf("registry names:\n got %q\nwant %q", got, want)
	}
	if _, ok := a.reg.HistogramSnapshot()["proxy.latency_ns"]; !ok {
		t.Error("registry has no proxy.latency_ns histogram")
	}
}

// TestParentTransportKeepsIdleConnections pins the -parent transport's
// idle pool: after a burst of concurrent misses, the next burst reuses
// the connections the first one opened. With net/http's default of two
// idle connections per host, all but two would be dialed again.
func TestParentTransportKeepsIdleConnections(t *testing.T) {
	const burst = 8
	var dialed atomic.Int64
	arrived := make(chan struct{}, burst)
	release := make(chan struct{})
	parent := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-release // hold every request of a burst until all are in flight
		fmt.Fprint(w, "from the parent")
	}))
	parent.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dialed.Add(1)
		}
	}
	parent.Start()
	defer parent.Close()

	a, err := buildApp(options{capacity: 1 << 20, polSpec: "SIZE", freshFor: time.Minute, parent: parent.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	traffic := serveTraffic(t, a.mux)
	defer traffic.Close()

	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				req, _ := http.NewRequest(http.MethodGet, traffic.URL+"/", nil)
				req.Host = fmt.Sprintf("round%d.doc%d.example", round, i)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}(i)
		}
		for i := 0; i < burst; i++ {
			<-arrived
		}
		for i := 0; i < burst; i++ {
			release <- struct{}{}
		}
		wg.Wait()
		// A connection is handed back to the idle pool by the transport's
		// own goroutine, just after the body's last byte; allow two to
		// have missed the second burst (the default pool would miss six).
		if got := dialed.Load(); got < burst || got > burst+2 {
			t.Fatalf("after round %d the proxy has dialed its parent %d times, want %d", round, got, burst)
		}
	}
}

// TestTrafficForwardsRequestTargetsUnchanged sends request lines that a
// path-cleaning mux would redirect or answer itself: every one reaches
// the upstream (here the parent) with its exact URL, and only the
// origin-form GET /._webcache/stats gets the proxy's own stats.
func TestTrafficForwardsRequestTargetsUnchanged(t *testing.T) {
	parent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "parent saw %s", r.RequestURI)
	}))
	defer parent.Close()
	a, err := buildApp(options{capacity: 1 << 20, polSpec: "SIZE", freshFor: time.Minute, parent: parent.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	traffic := serveTraffic(t, a.mux)
	defer traffic.Close()

	for _, target := range []string{
		"http://example.com/a//b",
		"http://example.com/a/../b",
		"http://example.com/x/./y",
		"http://example.com/._webcache/stats",
	} {
		c, err := net.Dial("tcp", traffic.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: example.com\r\nConnection: close\r\n\r\n", target)
		resp, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		body, err := io.ReadAll(resp.Body)
		c.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(body) != "parent saw "+target {
			t.Errorf("%s: status %d, body %q, err %v; want 200 from the parent with the exact URL", target, resp.StatusCode, body, err)
		}
	}
	body, status := adminGet(t, traffic.URL+"/._webcache/stats")
	if status != http.StatusOK || !strings.Contains(body, `"proxy"`) {
		t.Errorf("origin-form stats: status %d, body %.80q", status, body)
	}
}

// TestShadowApp wires the app with a shadow fleet and the admin
// surface, pushes traffic through it, and checks the fleet end to end:
// every successful GET reaches the ghost caches, /shadow answers in
// text and JSON, /metrics carries store.shadow.* and the deployed
// windowed-rate gauges, and the snapshot document grows shadow and
// store_window sections.
func TestShadowApp(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "<html>%s</html>", r.URL.Path)
	}))
	defer origin.Close()

	a, err := buildApp(options{
		capacity: 1 << 20,
		polSpec:  "SIZE",
		freshFor: time.Hour,
		admin:    true,
		shadow:   "LRU,SIZE,LFU",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.fleet == nil || a.srv.Shadow != a.fleet {
		t.Fatal("-shadow did not attach a fleet to the proxy server")
	}

	traffic := serveTraffic(t, a.mux)
	defer traffic.Close()
	adminAddr, err := a.admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminURL := "http://" + adminAddr.String()

	for _, path := range []string{"/a.html", "/b.html", "/c.html", "/a.html", "/a.html"} {
		req, err := http.NewRequest(http.MethodGet, traffic.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Host = strings.TrimPrefix(origin.URL, "http://")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Every request reached every ghost cache.
	rep := a.fleet.Report()
	if rep.Processed != 5 {
		t.Fatalf("fleet applied %d events, want 5", rep.Processed)
	}
	if len(rep.Shadows) != 3 {
		t.Fatalf("fleet has %d shadows, want 3", len(rep.Shadows))
	}
	for _, sh := range rep.Shadows {
		if sh.Requests != 5 {
			t.Errorf("shadow %s saw %d requests, want 5", sh.Policy, sh.Requests)
		}
	}

	// /shadow answers in text and JSON.
	body, status := adminGet(t, adminURL+"/shadow")
	if status != http.StatusOK || !strings.Contains(body, "POLICY") || !strings.Contains(body, "LRU") {
		t.Fatalf("/shadow = %d:\n%s", status, body)
	}
	body, status = adminGet(t, adminURL+"/shadow?format=json")
	if status != http.StatusOK {
		t.Fatalf("/shadow?format=json = %d", status)
	}
	var jsonRep struct {
		Processed int64
		Shadows   []struct{ Policy string }
	}
	if err := json.Unmarshal([]byte(body), &jsonRep); err != nil {
		t.Fatalf("/shadow json unparsable: %v\n%s", err, body)
	}
	if jsonRep.Processed != 5 || len(jsonRep.Shadows) != 3 {
		t.Fatalf("/shadow json = %+v", jsonRep)
	}

	// /metrics carries the fleet and the deployed windowed rate.
	body, status = adminGet(t, adminURL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}
	for _, want := range []string{
		"store.shadow.processed 5",
		"store.shadow.LRU.window_hr_bp ",
		"store.shadow.LFU.regret_bp ",
		"store.window_gets 5",
		"store.window_hits 2",
		"store.window_hr_bp 4000",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	// The snapshot document grows the shadow and store_window sections.
	raw, err := json.Marshal(a.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Shadow      struct{ Processed int64 }
		StoreWindow struct {
			Gets, Hits int64
			HR         float64
		} `json:"store_window"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Shadow.Processed != 5 {
		t.Errorf("snapshot shadow.processed = %d, want 5", snap.Shadow.Processed)
	}
	if snap.StoreWindow.Gets != 5 || snap.StoreWindow.Hits != 2 || snap.StoreWindow.HR != 0.4 {
		t.Errorf("snapshot store_window = %+v, want 5 gets / 2 hits / 0.4", snap.StoreWindow)
	}
}

// TestTracedApp wires the app with -trace-sample and the admin
// surface, pushes a miss and a hit through it, and checks the tracing
// path end to end: responses carry X-Trace-Id, /requests answers in
// text and JSON with the sampled timelines, /metrics carries the
// proxy.trace_* counters, the access log cross-references the trace
// IDs, and /trace includes the pid-2 request span trees.
func TestTracedApp(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "<html>%s</html>", r.URL.Path)
	}))
	defer origin.Close()

	a, err := buildApp(options{
		capacity:    1 << 20,
		polSpec:     "SIZE",
		freshFor:    time.Hour,
		admin:       true,
		traceSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.tracer == nil || a.srv.Tracer != a.tracer {
		t.Fatal("-trace-sample did not attach a tracer to the proxy server")
	}

	traffic := serveTraffic(t, a.mux)
	defer traffic.Close()
	adminAddr, err := a.admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminURL := "http://" + adminAddr.String()

	ids := map[string]bool{}
	for _, path := range []string{"/a.html", "/a.html"} {
		req, err := http.NewRequest(http.MethodGet, traffic.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Host = strings.TrimPrefix(origin.URL, "http://")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Trace-Id")
		if id == "" {
			t.Fatalf("response for %s has no X-Trace-Id", path)
		}
		ids[id] = true
	}
	if len(ids) != 2 {
		t.Fatalf("2 requests yielded %d distinct trace IDs", len(ids))
	}

	// /requests answers in text and JSON; both sampled requests were
	// kept (the miss is flagged, the hit competes in the half-empty
	// slowest reservoir) and carry their header IDs.
	body, status := adminGet(t, adminURL+"/requests")
	if status != http.StatusOK || !strings.Contains(body, "MISS") || !strings.Contains(body, "HIT") {
		t.Fatalf("/requests = %d:\n%s", status, body)
	}
	body, status = adminGet(t, adminURL+"/requests?format=json")
	if status != http.StatusOK {
		t.Fatalf("/requests?format=json = %d", status)
	}
	var doc struct {
		Stats    struct{ Sampled, Kept int64 }
		Requests []struct {
			ID      uint64
			Verdict string
			Spans   []struct{ Phase string }
		}
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/requests json unparsable: %v\n%s", err, body)
	}
	if doc.Stats.Sampled != 2 || doc.Stats.Kept != 2 || len(doc.Requests) != 2 {
		t.Fatalf("/requests json = %+v, want 2 sampled / 2 kept", doc)
	}
	for _, rec := range doc.Requests {
		if id := obs.FormatTraceID(rec.ID); !ids[id] {
			t.Errorf("kept trace %s not among response header IDs %v", id, ids)
		}
		var phases []string
		for _, sp := range rec.Spans {
			phases = append(phases, sp.Phase)
		}
		switch rec.Verdict {
		case "MISS":
			for _, want := range []string{"parse", "store.get", "origin.ttfb", "admit"} {
				if !slices.Contains(phases, want) {
					t.Errorf("miss timeline missing %s: %v", want, phases)
				}
			}
		case "HIT":
			if !slices.Contains(phases, "store.get") || slices.Contains(phases, "origin.ttfb") {
				t.Errorf("hit timeline %v, want store.get without origin phases", phases)
			}
		default:
			t.Errorf("unexpected verdict %q", rec.Verdict)
		}
	}

	// /metrics carries the tracer counters.
	body, status = adminGet(t, adminURL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}
	for _, want := range []string{"proxy.trace_sampled 2", "proxy.trace_kept 2", "proxy.trace_flagged 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	// The access log cross-references both trace IDs.
	body, status = adminGet(t, adminURL+"/accesslog")
	if status != http.StatusOK {
		t.Fatalf("accesslog status = %d", status)
	}
	for id := range ids {
		if !strings.Contains(body, " trace="+id) {
			t.Errorf("access log does not reference trace %s:\n%s", id, body)
		}
	}

	// /trace serves the two kept requests as span trees on pid 2.
	body, status = adminGet(t, adminURL+"/trace")
	if status != http.StatusOK {
		t.Fatalf("trace status = %d", status)
	}
	var events []struct {
		Name string
		Pid  int
	}
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("trace unparsable: %v", err)
	}
	requests := 0
	for _, ev := range events {
		if ev.Pid != 2 {
			t.Errorf("trace event %+v, want pid 2", ev)
		}
		if ev.Name == "request" {
			requests++
		}
	}
	if requests != 2 {
		t.Fatalf("trace has %d request trees, want 2:\n%s", requests, body)
	}
}

// TestShadowAppBadSpec pins startup validation: an unknown shadow
// policy fails buildApp instead of surfacing at first request.
func TestShadowAppBadSpec(t *testing.T) {
	if _, err := buildApp(options{capacity: 1 << 20, polSpec: "SIZE", shadow: "LRU,NOSUCH"}); err == nil {
		t.Fatal("buildApp accepted an unknown shadow policy")
	}
}

// TestCleanShutdownNoGoroutineLeak pins the Close ordering: a fully
// loaded app — shadow fleet, admin server with an SSE subscriber —
// releases every goroutine it started. Run twice to confirm Close is
// idempotent.
func TestCleanShutdownNoGoroutineLeak(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "<html>%s</html>", r.URL.Path)
	}))
	defer origin.Close()

	before := runtime.NumGoroutine()

	a, err := buildApp(options{
		capacity: 1 << 20,
		polSpec:  "SIZE",
		freshFor: time.Hour,
		admin:    true,
		shadow:   "LRU,LFU",
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.fleet == nil || a.admin == nil {
		t.Fatal("expected fleet and admin server both live")
	}

	traffic := serveTraffic(t, a.mux)
	adminAddr, err := a.admin.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Drive traffic so every subsystem has work in flight, and hold an
	// SSE subscription open so the admin server has an active streamer
	// to tear down.
	sse, err := http.Get("http://" + adminAddr.String() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/doc%d.html", traffic.URL, i%7), nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Host = strings.TrimPrefix(origin.URL, "http://")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	traffic.Close()
	a.Close()
	a.Close() // idempotent
	sse.Body.Close()

	// The admin accept loop, SSE streamer and snapshot ticker must all
	// be gone. Poll briefly: handler goroutines
	// unwind asynchronously after Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after Close\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDefaultAppMatchesSimulator replays a small BL trace through the
// app exactly as main wires it — default flags, on a four-core
// GOMAXPROCS, with the stub origin as its parent — and requires the
// proxy to hit and miss request for request with core.Cache under the
// same SIZE policy, capacity and tiebreak seed. It pins the deployed
// store to the simulator's one global eviction order: a store that
// splits its capacity or defers policy updates evicts different
// documents and diverges.
func TestDefaultAppMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("live HTTP replay in -short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	const seed = 11
	cfg, err := workload.ByName("BL", seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scale = 0.01
	cfg.SizeChangeProb = 0 // one size per URL, as the origin serves it
	cfg.ZeroSizeProb = 0
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	capacity := sim.Experiment1(tr, seed+1).MaxNeeded / 10
	pol, err := policy.Parse("SIZE", tr.Start)
	if err != nil {
		t.Fatal(err)
	}
	simCache := core.New(core.Config{Capacity: capacity, Policy: pol, Seed: seed + 2, ExcludeDynamic: true})

	originTS := httptest.NewServer(origin.FromTrace(tr))
	defer originTS.Close()
	a, err := buildApp(options{
		capacity: capacity,
		polSpec:  "SIZE",
		parent:   originTS.URL,
		freshFor: 100 * 365 * 24 * time.Hour, // never revalidate
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// livebench's recipe: the simulated cache's seed for the tiebreak
	// stream, and trace time for the store's clock.
	a.store.SetSeed(seed + 2)
	var now int64
	a.store.SetClock(func() time.Time { return time.Unix(now, 0) })

	// Served as main serves it; the store reads now, so the next request
	// may move the clock only once the handler has returned.
	handled := make(chan struct{}, 1)
	traffic := serveTraffic(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() { handled <- struct{}{} }()
		a.mux.ServeHTTP(w, r)
	}))
	trafficURL, err := url.Parse(traffic.URL)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(trafficURL)}}
	defer client.CloseIdleConnections()

	var hits int
	for i := range tr.Requests {
		req := &tr.Requests[i]
		now = req.Time
		simHit := simCache.Access(req)
		resp, err := client.Get(req.URL)
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, req.URL, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		<-handled
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d (%s): status %d", i, req.URL, resp.StatusCode)
		}
		if liveHit := resp.Header.Get("X-Cache") == "HIT"; liveHit != simHit {
			t.Fatalf("request %d (%s, %d bytes): proxy hit=%v, simulator hit=%v after %d agreeing requests",
				i, req.URL, req.Size, liveHit, simHit, i)
		}
		if simHit {
			hits++
		}
	}
	evictions := a.store.Stats().Evictions
	if hits == 0 || evictions == 0 {
		t.Fatalf("replay of %d requests saw %d hits and %d evictions; too small to mean anything", len(tr.Requests), hits, evictions)
	}
	if simEv := simCache.Stats().Evictions; evictions != simEv {
		t.Errorf("proxy evicted %d documents, simulator %d", evictions, simEv)
	}
	t.Logf("%d requests, %d hits, %d evictions, all agreeing", len(tr.Requests), hits, evictions)
}

// trafficServer serves a handler on a loopback port through
// proxy.ConnServer, as main serves the traffic listener.
type trafficServer struct {
	URL      string
	Listener net.Listener
	srv      *proxy.ConnServer
	served   chan error
	once     sync.Once
}

func serveTraffic(t *testing.T, h http.Handler) *trafficServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := &trafficServer{URL: "http://" + ln.Addr().String(), Listener: ln, srv: proxy.NewConnServer(h), served: make(chan error, 1)}
	go func() { ts.served <- ts.srv.Serve(ln) }()
	t.Cleanup(ts.Close)
	return ts
}

// Close stops the server and waits for every handler to return.
func (ts *trafficServer) Close() {
	ts.once.Do(func() {
		ts.srv.Shutdown(context.Background())
		<-ts.served
	})
}

func adminGet(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return string(body), resp.StatusCode
}
