package proxy

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"webcache/internal/obs"
	"webcache/internal/policy"
	"webcache/internal/trace"
)

func hasPhase(phases []string, name string) bool {
	for _, p := range phases {
		if p == name {
			return true
		}
	}
	return false
}

// TestStorePutTracedEvictionSpans pins the admission chain: each victim
// removal is one evict span annotated with the victim's size, and the
// trace's eviction counter matches.
func TestStorePutTracedEvictionSpans(t *testing.T) {
	tr := obs.NewTracer(obs.TracerOptions{})
	s := NewStore(100, policy.NewSorted([]policy.Key{policy.KeySize}, 0))
	s.Put("http://a/big", &Object{Body: make([]byte, 60)})
	s.Put("http://a/small", &Object{Body: make([]byte, 30)})

	rt := tr.Begin(1)
	if !s.PutTraced("http://a/new", &Object{Body: make([]byte, 50)}, rt) {
		t.Fatal("traced Put rejected")
	}
	var evicted int64
	for _, sp := range rt.Spans() {
		if sp.Phase.String() == "evict" {
			evicted += sp.Arg
		}
	}
	if evicted != 60 {
		t.Fatalf("evict spans account for %d victim bytes, want 60", evicted)
	}
	if got := rt.Evictions; got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	tr.End(rt, obs.Outcome{})
	if recs := tr.Snapshot(); len(recs) != 1 || recs[0].Flag != "evict" {
		t.Fatalf("evicting put not reservoir-kept: %+v", recs)
	}
}

// TestUntracedHitPathAllocs pins the disabled-tracing cost contract on
// the store: the untraced hit path allocates nothing.
func TestUntracedHitPathAllocs(t *testing.T) {
	s := NewStore(1000, nil)
	s.Put("http://a/x", &Object{Body: []byte("hello")})
	if allocs := testing.AllocsPerRun(100, func() { s.Get("http://a/x") }); allocs > 0 {
		t.Fatalf("plain Get allocates %.1f times", allocs)
	}
}

// TestProxyTracingEndToEnd runs a real miss-then-hit through a traced
// proxy: both responses carry X-Trace-Id, the miss is reservoir-kept
// with the full phase chain (parse → store.get → origin TTFB → body →
// admit → serve), and the hit's chain stops at the store.
func TestProxyTracingEndToEnd(t *testing.T) {
	origin := &originServer{body: "<html>traced</html>", lastMod: time.Now().Add(-time.Hour)}
	ots := httptest.NewServer(origin.handler())
	defer ots.Close()

	srv, pts := newProxyServer(t, time.Minute)
	tracer := obs.NewTracer(obs.TracerOptions{})
	srv.Tracer = tracer
	target := ots.URL + "/page.html"

	resp, _ := proxyGet(t, pts.URL, target, nil)
	missID := resp.Header.Get("X-Trace-Id")
	if missID == "" {
		t.Fatal("miss response has no X-Trace-Id")
	}
	resp, _ = proxyGet(t, pts.URL, target, nil)
	hitID := resp.Header.Get("X-Trace-Id")
	if hitID == "" || hitID == missID {
		t.Fatalf("hit trace ID %q (miss was %q)", hitID, missID)
	}

	records := map[string]obs.RequestRecord{}
	for _, rec := range tracer.Snapshot() {
		records[obs.FormatTraceID(rec.ID)] = rec
	}
	miss, ok := records[missID]
	if !ok {
		t.Fatalf("miss trace %s not kept; have %v", missID, records)
	}
	if miss.Verdict != "MISS" || miss.Flag != "miss" || miss.URL != target {
		t.Fatalf("miss record %+v", miss)
	}
	missPhases := make([]string, len(miss.Spans))
	for i, sp := range miss.Spans {
		missPhases[i] = sp.Phase
	}
	for _, want := range []string{"parse", "store.get", "origin.ttfb", "origin.body", "admit", "serve"} {
		if !hasPhase(missPhases, want) {
			t.Errorf("miss timeline missing %s: %v", want, missPhases)
		}
	}
	// Span offsets must nest inside the request's total.
	for _, sp := range miss.Spans {
		if sp.StartNs < 0 || sp.StartNs+sp.DurNs > miss.TotalNs {
			t.Errorf("span %s [%d, +%d] escapes request total %d", sp.Phase, sp.StartNs, sp.DurNs, miss.TotalNs)
		}
	}

	hit, ok := records[hitID]
	if !ok {
		t.Fatalf("hit trace %s not kept (default reservoir keeps 16 slowest)", hitID)
	}
	if hit.Verdict != "HIT" {
		t.Fatalf("hit record %+v", hit)
	}
	hitPhases := make([]string, len(hit.Spans))
	for i, sp := range hit.Spans {
		hitPhases[i] = sp.Phase
	}
	if !hasPhase(hitPhases, "store.get") || hasPhase(hitPhases, "origin.ttfb") || hasPhase(hitPhases, "admit") {
		t.Fatalf("hit timeline %v, want store.get without origin phases", hitPhases)
	}
}

// TestProxyTracingDisabled pins the off state: no tracer, no header —
// and no requests retained anywhere.
func TestProxyTracingDisabled(t *testing.T) {
	origin := &originServer{body: "plain", lastMod: time.Now().Add(-time.Hour)}
	ots := httptest.NewServer(origin.handler())
	defer ots.Close()
	_, pts := newProxyServer(t, time.Minute)

	resp, _ := proxyGet(t, pts.URL, ots.URL+"/page.html", nil)
	if got := resp.Header.Get("X-Trace-Id"); got != "" {
		t.Fatalf("untraced proxy stamped X-Trace-Id %q", got)
	}
}

// TestProxyTracingSampling pins head sampling through the full proxy:
// with SampleEvery 2, alternate requests carry the header.
func TestProxyTracingSampling(t *testing.T) {
	origin := &originServer{body: "sampled", lastMod: time.Now().Add(-time.Hour)}
	ots := httptest.NewServer(origin.handler())
	defer ots.Close()
	srv, pts := newProxyServer(t, time.Minute)
	srv.Tracer = obs.NewTracer(obs.TracerOptions{SampleEvery: 2})

	var traced int
	for i := 0; i < 6; i++ {
		resp, _ := proxyGet(t, pts.URL, ots.URL+"/page.html", nil)
		if resp.Header.Get("X-Trace-Id") != "" {
			traced++
		}
	}
	if traced != 3 {
		t.Fatalf("%d of 6 requests traced, want 3", traced)
	}
}

// TestAccessLogTraceCrossReference pins satellite wiring: a sampled
// request's access-log line carries trace=<id> matching its X-Trace-Id
// response header, and the extended line still round-trips through the
// simulator's CLF parser.
func TestAccessLogTraceCrossReference(t *testing.T) {
	origin := &originServer{body: "logged", lastMod: time.Now().Add(-time.Hour)}
	ots := httptest.NewServer(origin.handler())
	defer ots.Close()

	srv := New(NewStore(1<<20, nil))
	srv.FreshFor = time.Minute
	srv.Tracer = obs.NewTracer(obs.TracerOptions{})
	logger := NewAccessLogger(nil)
	srv.AccessLog = logger
	pts := httptest.NewServer(srv)
	defer pts.Close()

	target := ots.URL + "/page.html"
	resp, _ := proxyGet(t, pts.URL, target, nil)
	id := resp.Header.Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no X-Trace-Id on traced response")
	}

	lines := logger.Recent()
	if len(lines) != 1 {
		t.Fatalf("%d log lines, want 1", len(lines))
	}
	line := lines[0]
	if !strings.Contains(line, " trace="+id) {
		t.Fatalf("log line %q does not reference trace %s", line, id)
	}
	req, err := trace.ParseCLFLine(strings.TrimSuffix(line, "\n"))
	if err != nil {
		t.Fatalf("extended line no longer parses as CLF: %v\n%s", err, line)
	}
	if req.URL != target || req.Size != int64(len("logged")) {
		t.Fatalf("round-tripped request %+v", req)
	}
}
