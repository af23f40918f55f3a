package proxy

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"webcache/internal/obs"
)

func TestStoreHooksFireOnStore(t *testing.T) {
	reg := obs.NewRegistry()
	ring := obs.NewEventRing(64)
	st := NewStore(250, nil)
	hooks, window := StoreHooks(reg, ring)
	st.SetHooks(hooks)
	st.RegisterMetrics(reg)

	obj := func(n int) *Object { return &Object{Body: bytes.Repeat([]byte("x"), n)} }

	if _, ok := st.Get("http://a/1"); ok {
		t.Fatal("empty store reported a hit")
	}
	st.Put("http://a/1", obj(100))
	st.Put("http://a/2", obj(100))
	if _, ok := st.Get("http://a/1"); !ok {
		t.Fatal("expected hit")
	}
	// 100+100 resident; +100 forces one eviction.
	st.Put("http://a/3", obj(100))

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"store.hits":          1,
		"store.misses":        1,
		"store.inserts":       3,
		"store.evictions":     1,
		"store.evicted_bytes": 100,
		"store.window_gets":   2,
		"store.window_hits":   1,
		"store.window_hr_bp":  5000,
	} {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}

	if hits, gets := window.WindowCounts(); hits != 1 || gets != 2 {
		t.Errorf("returned window counts (hits %d, gets %d), want (1, 2)", hits, gets)
	}

	// The ring has not wrapped, so it holds every event the hooks saw.
	var kinds [4]int64
	for _, ev := range ring.Snapshot() {
		kinds[ev.Kind]++
	}
	if kinds != [4]int64{1, 1, 1, 3} {
		t.Errorf("ring events (hit, miss, evict, add) = %v, want [1 1 1 3]", kinds)
	}
	// The hook stream must agree with the store's own counters.
	ss := st.Stats()
	if kinds[obs.EventHit] != ss.Hits || kinds[obs.EventEvict] != ss.Evictions {
		t.Errorf("ring (hits %d, evicts %d) disagrees with StoreStats (%d, %d)",
			kinds[obs.EventHit], kinds[obs.EventEvict], ss.Hits, ss.Evictions)
	}
}

func TestStoreWithoutHooksUnchanged(t *testing.T) {
	st := NewStore(1<<20, nil)
	st.Put("http://a/1", &Object{Body: []byte("hello")})
	if _, ok := st.Get("http://a/1"); !ok {
		t.Fatal("expected hit without hooks")
	}
	if got := st.Stats().Hits; got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
}

func TestProxyMetricsMatchStats(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, "<html>doc</html>")
	}))
	defer origin.Close()

	reg := obs.NewRegistry()
	srv := New(NewStore(1<<20, nil))
	srv.RegisterMetrics(reg)
	pts := httptest.NewServer(srv)
	defer pts.Close()

	for i := 0; i < 3; i++ {
		proxyGet(t, pts.URL, origin.URL+"/page.html", nil)
	}

	st := srv.Stats()
	if st.Requests != 3 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 3 requests / 2 hits / 1 miss", st)
	}
	snap := reg.Snapshot()
	checks := map[string]int64{
		"proxy.requests":       st.Requests,
		"proxy.hits":           st.Hits,
		"proxy.misses":         st.Misses,
		"proxy.bytes_served":   st.BytesServed,
		"proxy.bytes_from_hit": st.BytesFromHit,
		"proxy.origin_fetches": 1,
		"proxy.origin_bytes":   int64(len("<html>doc</html>")),
	}
	for name, want := range checks {
		if got := snap[name]; got != want {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	lat := reg.Histogram("proxy.latency_ns")
	if lat.Count() != 3 {
		t.Errorf("latency count = %d, want 3", lat.Count())
	}
	if lat.Quantile(0.50) <= 0 {
		t.Errorf("latency p50 = %d, want > 0", lat.Quantile(0.50))
	}
}

// TestOriginBytesCountRelayedResponses pins that a fetch relayed
// uncached (here a 404) counts its body in proxy.origin_bytes, as it
// counts the fetch in proxy.origin_fetches.
func TestOriginBytesCountRelayedResponses(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, "not found")
	}))
	defer origin.Close()

	reg := obs.NewRegistry()
	srv := New(NewStore(1<<20, nil))
	srv.RegisterMetrics(reg)
	pts := httptest.NewServer(srv)
	defer pts.Close()

	resp, body := proxyGet(t, pts.URL, origin.URL+"/missing.html", nil)
	if resp.StatusCode != http.StatusNotFound || body != "not found" {
		t.Fatalf("response = %d %q, want 404 \"not found\"", resp.StatusCode, body)
	}
	snap := reg.Snapshot()
	if got := snap["proxy.origin_fetches"]; got != int64(1) {
		t.Errorf("proxy.origin_fetches = %v, want 1", got)
	}
	if got := snap["proxy.origin_bytes"]; got != int64(len("not found")) {
		t.Errorf("proxy.origin_bytes = %v, want %d", got, len("not found"))
	}
}

// TestAccessLoggerSamplingConcurrent drives many concurrent writers
// through a sampling logger and checks the emitted line count is
// exactly seen/every, with no torn lines.
func TestAccessLoggerSamplingConcurrent(t *testing.T) {
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	var buf syncBuffer
	l := NewAccessLogger(backend, &buf)
	l.SetSample(4)
	pts := httptest.NewServer(l)
	defer pts.Close()

	const writers, per = 8, 25 // 200 requests, every=4 → 50 lines
	var wg sync.WaitGroup
	for wkr := 0; wkr < writers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < per; i++ {
				req, _ := http.NewRequest(http.MethodGet,
					fmt.Sprintf("%s/doc-%d-%d.html", pts.URL, wkr, i), nil)
				req.Host = "example.test"
				resp, err := client.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
			}
		}(wkr)
	}
	wg.Wait()
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	const wantLines = writers * per / 4
	if got := l.Lines(); got != wantLines {
		t.Errorf("Lines() = %d, want %d", got, wantLines)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != wantLines {
		t.Fatalf("emitted %d lines, want %d", len(lines), wantLines)
	}
	for i, line := range lines {
		if !strings.Contains(line, "\"GET http://example.test/doc-") ||
			!strings.HasSuffix(line, " 200 2") {
			t.Errorf("line %d malformed (torn write?): %q", i, line)
		}
	}
	// Recent() serves the same lines to the admin endpoint.
	recent := l.Recent()
	if len(recent) != wantLines {
		t.Errorf("Recent() kept %d lines, want %d", len(recent), wantLines)
	}
}

func TestAccessLoggerNilWriter(t *testing.T) {
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	l := NewAccessLogger(backend, nil)
	pts := httptest.NewServer(l)
	defer pts.Close()

	req, _ := http.NewRequest(http.MethodGet, pts.URL+"/x.html", nil)
	req.Host = "example.test"
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush on nil-writer logger: %v", err)
	}
	if got := l.Lines(); got != 1 {
		t.Fatalf("Lines() = %d, want 1 (retain-only mode still counts)", got)
	}
	if recent := l.Recent(); len(recent) != 1 || !strings.Contains(recent[0], "/x.html") {
		t.Fatalf("Recent() = %v, want the one formatted line", recent)
	}
}

func TestAccessLoggerRecentWraps(t *testing.T) {
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	l := NewAccessLogger(backend, nil)
	pts := httptest.NewServer(l)
	defer pts.Close()
	for i := 0; i < recentLines+10; i++ {
		req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/d%d", pts.URL, i), nil)
		req.Host = "example.test"
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	recent := l.Recent()
	if len(recent) != recentLines {
		t.Fatalf("Recent() kept %d lines, want %d", len(recent), recentLines)
	}
	if !strings.Contains(recent[len(recent)-1], fmt.Sprintf("/d%d ", recentLines+9)) {
		t.Errorf("newest line missing: %q", recent[len(recent)-1])
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
