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

func TestServerTrace(t *testing.T) {
	ring := NewEventRing(8)
	ring.Add(Event{Kind: EventEvict, Time: 50, ID: 3, Size: 512, Age: 20, NRef: 4})
	s := NewServer(ServerOptions{Ring: ring})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body, status := get(t, srv.URL+"/trace")
	if status != http.StatusOK {
		t.Fatalf("trace status = %d", status)
	}
	var records []map[string]any
	if err := json.Unmarshal([]byte(body), &records); err != nil {
		t.Fatalf("trace unparsable: %v", err)
	}
	if len(records) != 1 || records[0]["ph"] != "X" {
		t.Fatalf("trace = %v, want one complete event", records)
	}
}

func TestServerTraceWithoutRing(t *testing.T) {
	s := NewServer(ServerOptions{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, status := get(t, srv.URL+"/trace"); status != http.StatusNotFound {
		t.Fatalf("trace without ring = %d, want 404", status)
	}
}

// TestServerRequests wires a tracer with one kept request into the
// admin server and reads it back through /requests in both formats,
// and through /trace as the combined export (ring residency on pid 1,
// request span trees on pid 2).
func TestServerRequests(t *testing.T) {
	c := newTracerClock()
	tr := NewTracer(TracerOptions{Clock: c.now})
	rt := tr.Begin()
	rt.SetURL("http://e.com/slow")
	sp := rt.BeginSpan(PhaseStoreGet)
	c.advance(3 * time.Millisecond)
	rt.EndSpan(sp)
	rt.SetOutcome("MISS", 200, 64)
	tr.End(rt)

	ring := NewEventRing(8)
	ring.Add(Event{Kind: EventAdd, Time: 10, ID: 1, Size: 64})

	s := NewServer(ServerOptions{Ring: ring, Tracer: tr})
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
		t.Fatalf("combined trace status = %d", status)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("combined trace unparsable: %v", err)
	}
	pids := map[float64]int{}
	for _, ev := range events {
		pids[ev["pid"].(float64)]++
	}
	if pids[1] == 0 || pids[2] == 0 {
		t.Fatalf("combined trace missing a source: pid counts %v", pids)
	}

	if body, status = get(t, srv.URL+"/"); status != http.StatusOK || !strings.Contains(body, "/requests") {
		t.Fatalf("index does not list /requests: %d\n%s", status, body)
	}
}

// TestServerRequestsWithoutTracer mirrors TestServerTraceWithoutRing:
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

// TestServerTraceTracerOnly pins that /trace works with only the
// request tracer attached (no event ring): the combined writer treats
// either source alone as exportable.
func TestServerTraceTracerOnly(t *testing.T) {
	c := newTracerClock()
	tr := NewTracer(TracerOptions{Clock: c.now})
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

func TestServerEventsWithoutSource(t *testing.T) {
	s := NewServer(ServerOptions{})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if _, status := get(t, srv.URL+"/events"); status != http.StatusNotFound {
		t.Fatalf("events without source = %d, want 404", status)
	}
}

func TestServerEventsPush(t *testing.T) {
	b := NewBroadcaster()
	s := NewServer(ServerOptions{Events: b})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q, want text/event-stream", ct)
	}

	// The subscription registers during handler startup; wait for it so
	// the publish cannot race ahead of Subscribe.
	waitFor(t, func() bool { return subscribers(b) == 1 })
	b.Publish(ReplaySnapshot{Policy: "SIZE", Workload: "U", Hits: 42})

	frame := readSSEFrame(t, bufio.NewReader(resp.Body))
	var snap ReplaySnapshot
	if err := json.Unmarshal([]byte(frame), &snap); err != nil {
		t.Fatalf("SSE frame unparsable: %v\n%s", err, frame)
	}
	if snap.Policy != "SIZE" || snap.Hits != 42 {
		t.Fatalf("SSE frame = %+v, want published snapshot", snap)
	}
}

// TestServerEventsNoLostFrames pins both ends of a subscription: it
// exists by the time the client has the response headers, so a publish
// right after GET returns is not lost, and frames published before
// Close are still delivered by the closing server.
func TestServerEventsNoLostFrames(t *testing.T) {
	b := NewBroadcaster()
	s := NewServer(ServerOptions{Events: b})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	resp, err := http.Get("http://" + addr.String() + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if n := subscribers(b); n != 1 {
		t.Fatalf("%d subscribers once the headers arrived, want 1", n)
	}
	const published = 32 // inside the subscription's 64-frame buffer
	for i := 0; i < published; i++ {
		b.Publish(map[string]int{"seq": i})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the stream to its end: %v", err)
	}
	if got := strings.Count(string(body), "data: "); got != published {
		t.Fatalf("%d frames delivered, want %d", got, published)
	}
}

func TestServerEventsPoll(t *testing.T) {
	calls := 0
	s := NewServer(ServerOptions{
		Snapshot:         func() any { calls++; return map[string]any{"requests": calls} },
		SnapshotInterval: 10 * time.Millisecond,
	})
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

// TestServerEventsNoGoroutineLeak pins the SSE shutdown contract: open
// streams are released by Close, and disconnected clients release their
// handler goroutines. goleak-style — compare runtime.NumGoroutine
// before and after, with retries for scheduler lag.
func TestServerEventsNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	b := NewBroadcaster()
	s := NewServer(ServerOptions{
		Events:           b,
		Snapshot:         func() any { return map[string]any{} },
		SnapshotInterval: 5 * time.Millisecond,
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}

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
	waitFor(t, func() bool { return subscribers(b) == 3 })

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, resp := range resps {
		io.Copy(io.Discard, resp.Body) // drain to EOF — server is gone
		resp.Body.Close()
	}

	// Handlers must have unsubscribed on the way out.
	waitFor(t, func() bool { return subscribers(b) == 0 })
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

// subscribers returns the number of b's active subscriptions.
func subscribers(b *Broadcaster) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

func TestBroadcasterDropsOnFullBuffer(t *testing.T) {
	b := NewBroadcaster()
	ch, cancel := b.Subscribe(1)
	defer cancel()
	b.Publish(1)
	b.Publish(2) // buffer full: dropped, not blocked
	if got := <-ch; got != 1 {
		t.Fatalf("first value = %v, want 1", got)
	}
	select {
	case v := <-ch:
		t.Fatalf("unexpected second value %v, want drop", v)
	default:
	}
	cancel()
	cancel() // idempotent
	if n := subscribers(b); n != 0 {
		t.Fatalf("subscribers after cancel = %d, want 0", n)
	}
}

func TestObserverPublishesToBroadcaster(t *testing.T) {
	b := NewBroadcaster()
	ring := NewEventRing(8)
	o := New(Options{Events: b, Ring: ring})
	if o.Ring() != ring {
		t.Fatal("Ring does not return the attached ring")
	}
	ch, cancel := b.Subscribe(4)
	defer cancel()
	o.EmitReplay(ReplaySnapshot{Policy: "LRU", Workload: "U"})
	select {
	case v := <-ch:
		snap, ok := v.(ReplaySnapshot)
		if !ok || snap.Policy != "LRU" {
			t.Fatalf("published value = %#v, want the snapshot", v)
		}
	case <-time.After(time.Second):
		t.Fatal("snapshot was not published")
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
