package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestServerHealthz(t *testing.T) {
	s := NewServer(ServerOptions{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, status := get(t, srv.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q, want 200 ok", status, body)
	}
}

func TestServerMetricsTextAndJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cache.hits").Add(7)
	reg.Histogram("latency_ns").Observe(1000)
	s := NewServer(ServerOptions{Registry: reg})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, status := get(t, srv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}
	for _, want := range []string{"cache.hits 7", "latency_ns.count 1", "latency_ns.p50", "latency_ns.p99"} {
		if !strings.Contains(body, want) {
			t.Errorf("text exposition missing %q:\n%s", want, body)
		}
	}

	body, status = get(t, srv.URL+"/metrics?format=json")
	if status != http.StatusOK {
		t.Fatalf("metrics json status = %d", status)
	}
	var doc struct {
		Metrics    map[string]any `json:"metrics"`
		Histograms map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("json exposition unparsable: %v\n%s", err, body)
	}
	if doc.Metrics["cache.hits"].(float64) != 7 {
		t.Errorf("json cache.hits = %v, want 7", doc.Metrics["cache.hits"])
	}
	h := doc.Histograms["latency_ns"].(map[string]any)
	for _, key := range []string{"count", "sum", "p50", "p95", "p99", "buckets"} {
		if _, ok := h[key]; !ok {
			t.Errorf("json histogram missing %q: %v", key, h)
		}
	}
}

func TestServerMetricsWithoutRegistry(t *testing.T) {
	s := NewServer(ServerOptions{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, status := get(t, srv.URL+"/metrics"); status != http.StatusNotFound {
		t.Fatalf("metrics without registry = %d, want 404", status)
	}
}

func TestServerBuildinfo(t *testing.T) {
	s := NewServer(ServerOptions{BuildMeta: map[string]any{"cmd": "proxy", "policy": "LRU-MIN"}})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, status := get(t, srv.URL+"/buildinfo")
	if status != http.StatusOK {
		t.Fatalf("buildinfo status = %d", status)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("buildinfo unparsable: %v", err)
	}
	if doc["cmd"] != "proxy" || doc["policy"] != "LRU-MIN" {
		t.Errorf("buildinfo meta = %v, want cmd/policy merged in", doc)
	}
	for _, key := range []string{"go_version", "git_rev"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("buildinfo missing %q", key)
		}
	}
}

// TestServerTrace pins that /trace serves exactly the tracer's own
// Chrome export, and that every record in it is a complete ("X") event.
func TestServerTrace(t *testing.T) {
	c := newTracerClock()
	tr := newTracer(TracerOptions{}, slowestK, c.now)
	finish(tr, c, time.Millisecond, "HIT")
	s := NewServer(ServerOptions{Tracer: tr})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body, status := get(t, srv.URL+"/trace")
	if status != http.StatusOK {
		t.Fatalf("trace status = %d", status)
	}
	var want strings.Builder
	if err := tr.WriteChromeTrace(&want); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Fatalf("trace body differs from Tracer.WriteChromeTrace:\n got %s\nwant %s", body, want.String())
	}
	var records []map[string]any
	if err := json.Unmarshal([]byte(body), &records); err != nil {
		t.Fatalf("trace unparsable: %v", err)
	}
	for _, r := range records {
		if r["ph"] != "X" {
			t.Fatalf("trace record %v, want a complete event", r)
		}
	}
}

// TestServerTraceTracerOnly pins that /trace works with only the
// request tracer attached: its kept requests come out as pid-2 spans.
func TestServerTraceTracerOnly(t *testing.T) {
	c := newTracerClock()
	tr := newTracer(TracerOptions{}, slowestK, c.now)
	finish(tr, c, time.Millisecond, "HIT")
	s := NewServer(ServerOptions{Tracer: tr})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body, status := get(t, srv.URL+"/trace")
	if status != http.StatusOK {
		t.Fatalf("tracer-only trace status = %d", status)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("tracer-only trace unparsable: %v", err)
	}
	if len(events) == 0 || events[0]["pid"].(float64) != 2 {
		t.Fatalf("tracer-only trace = %v, want pid-2 request spans", events)
	}
}

func TestServerTraceWithoutTracer(t *testing.T) {
	s := NewServer(ServerOptions{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, status := get(t, srv.URL+"/trace"); status != http.StatusNotFound {
		t.Fatalf("trace without tracer = %d, want 404", status)
	}
}

// TestServerRequests wires a tracer with one kept request into the
// admin server and reads it back through /requests in both formats,
// and through /trace as its span tree on pid 2.
func TestServerRequests(t *testing.T) {
	c := newTracerClock()
	tr := newTracer(TracerOptions{}, slowestK, c.now)
	rt := tr.Begin(1)
	sp := rt.BeginSpan(PhaseStoreGet)
	c.advance(3 * time.Millisecond)
	rt.EndSpan(sp)
	tr.End(rt, Outcome{URL: "http://e.com/slow", Verdict: "MISS", Status: 200, Bytes: 64})

	s := NewServer(ServerOptions{Tracer: tr})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, status := get(t, srv.URL+"/requests")
	if status != http.StatusOK || !strings.Contains(body, "00000001") || !strings.Contains(body, "MISS") {
		t.Fatalf("requests table = %d %q", status, body)
	}
	body, status = get(t, srv.URL+"/requests?format=json")
	if status != http.StatusOK {
		t.Fatalf("requests json status = %d", status)
	}
	var doc struct {
		Requests []map[string]any `json:"requests"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("requests json unparsable: %v\n%s", err, body)
	}
	if len(doc.Requests) != 1 || doc.Requests[0]["url"] != "http://e.com/slow" {
		t.Fatalf("requests json = %v, want the one kept trace", doc.Requests)
	}

	body, status = get(t, srv.URL+"/trace")
	if status != http.StatusOK {
		t.Fatalf("trace status = %d", status)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("trace unparsable: %v", err)
	}
	if len(events) != 2 || events[0]["pid"].(float64) != 2 || events[0]["name"] != "request" {
		t.Fatalf("trace = %v, want the kept request and its one span on pid 2", events)
	}

	if body, status = get(t, srv.URL+"/"); status != http.StatusOK || !strings.Contains(body, "/requests") {
		t.Fatalf("index does not list /requests: %d\n%s", status, body)
	}
}

// TestServerRequestsWithoutTracer mirrors TestServerTraceWithoutTracer:
// no tracer attached means 404, not an empty page.
func TestServerRequestsWithoutTracer(t *testing.T) {
	s := NewServer(ServerOptions{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, status := get(t, srv.URL+"/requests"); status != http.StatusNotFound {
		t.Fatalf("requests without tracer = %d, want 404", status)
	}
}

func TestServerEventsWithoutSource(t *testing.T) {
	s := NewServer(ServerOptions{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, status := get(t, srv.URL+"/events"); status != http.StatusNotFound {
		t.Fatalf("events without source = %d, want 404", status)
	}
}

func TestServerEventsPoll(t *testing.T) {
	calls := 0
	s := NewServer(ServerOptions{
		Snapshot: func() any { calls++; return map[string]any{"requests": calls} },
	})
	s.snapshotInterval = 10 * time.Millisecond
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()

	// The first frame arrives immediately (no full-interval wait), and a
	// second follows from the ticker.
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 2; i++ {
		frame := readSSEFrame(t, br)
		var doc map[string]any
		if err := json.Unmarshal([]byte(frame), &doc); err != nil {
			t.Fatalf("poll frame %d unparsable: %v\n%s", i, err, frame)
		}
		if doc["requests"].(float64) < 1 {
			t.Fatalf("poll frame %d = %v, want requests >= 1", i, doc)
		}
	}
}

// TestServerEventsNoGoroutineLeak pins the SSE shutdown contract: a
// disconnected client releases its handler goroutine, and open streams
// are released by Close. goleak-style — compare runtime.NumGoroutine
// before and after, with retries for scheduler lag.
func TestServerEventsNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	s := NewServer(ServerOptions{
		Snapshot: func() any { return map[string]any{} },
	})
	s.snapshotInterval = 5 * time.Millisecond
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	serving := runtime.NumGoroutine()

	// A client that hangs up mid-stream releases its handler while the
	// server keeps running.
	resp, err := http.Get("http://" + addr.String() + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	readSSEFrame(t, bufio.NewReader(resp.Body))
	resp.Body.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= serving })

	// Open several streams, read a frame from each, then close the
	// server underneath them.
	var resps []*http.Response
	for i := 0; i < 3; i++ {
		resp, err := http.Get("http://" + addr.String() + "/events")
		if err != nil {
			t.Fatalf("GET /events: %v", err)
		}
		readSSEFrame(t, bufio.NewReader(resp.Body))
		resps = append(resps, resp)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, resp := range resps {
		io.Copy(io.Discard, resp.Body) // drain to EOF — server is gone
		resp.Body.Close()
	}

	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestProgressNoGoroutineLeak covers the Progress side of the audit: a
// double Start must not launch a second ticker, and Stop must release
// the one that is running.
func TestProgressNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewProgress(io.Discard, "test", time.Millisecond)
	p.Start()
	p.Start() // must be a no-op, not a second ticker goroutine
	p.AddTotal(2)
	p.Done(1)
	time.Sleep(5 * time.Millisecond)
	p.Stop()
	p.Start() // starting after stop stays a no-op
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before })
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestServerStartClose(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up").Inc()
	s := NewServer(ServerOptions{Registry: reg})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	body, status := get(t, "http://"+addr.String()+"/metrics")
	if status != http.StatusOK || !strings.Contains(body, "up 1") {
		t.Fatalf("served metrics = %d %q", status, body)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := http.Get("http://" + addr.String() + "/metrics"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

func TestServerIndexAndExtra(t *testing.T) {
	s := NewServer(ServerOptions{
		Extra: map[string]http.Handler{
			"/accesslog": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, "log line\n")
			}),
		},
	})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, status := get(t, srv.URL+"/")
	if status != http.StatusOK {
		t.Fatalf("index status = %d", status)
	}
	for _, want := range []string{"/healthz", "/metrics", "/events", "/debug/pprof/", "/accesslog"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q:\n%s", want, body)
		}
	}
	if body, status = get(t, srv.URL+"/accesslog"); status != http.StatusOK || body != "log line\n" {
		t.Fatalf("extra handler = %d %q", status, body)
	}
	if _, status = get(t, srv.URL+"/nonexistent"); status != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", status)
	}
}

func TestServerPprofIndex(t *testing.T) {
	s := NewServer(ServerOptions{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body, status := get(t, srv.URL+"/debug/pprof/")
	if status != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index = %d, want profile listing", status)
	}
}

// get fetches a URL and returns (body, status).
func get(t *testing.T, url string) (string, int) {
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

// readSSEFrame reads one "data: ..." frame from an SSE stream.
func readSSEFrame(t *testing.T, br *bufio.Reader) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		if strings.HasPrefix(line, "data: ") {
			return strings.TrimPrefix(line, "data: ")
		}
	}
	t.Fatal("no SSE data frame within deadline")
	return ""
}

// waitFor polls cond until true or a 2-second deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}
