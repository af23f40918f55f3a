package proxy

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"webcache/internal/obs"
)

// TestStoreHooksFireOnStore pins the store's registry view: the
// store.* counters come from its core.Stats, and the store.window_*
// gauges from the recent window RegisterMetrics starts, which counts
// every Get.
func TestStoreHooksFireOnStore(t *testing.T) {
	reg := obs.NewRegistry()
	st := NewStore(250, nil)
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

	if hits, gets := st.WindowCounts(); hits != 1 || gets != 2 {
		t.Errorf("window counts (hits %d, gets %d), want (1, 2)", hits, gets)
	}
}

// TestStoreWindowCountsLookups pins what the recent window counts:
// store lookups and nothing else. Through the server, a miss and a hit
// look up; a client reload (Pragma: no-cache) and an uncacheable GET do
// not, nor does an ICP query, which only peeks. The window must agree
// with the store's own Gets and Hits.
func TestStoreWindowCountsLookups(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<html>doc</html>")
	}))
	defer origin.Close()

	reg := obs.NewRegistry()
	store := NewStore(1<<20, nil)
	store.RegisterMetrics(reg)
	pts := httptest.NewServer(New(store))
	defer pts.Close()

	proxyGet(t, pts.URL, origin.URL+"/a.html", nil) // miss
	proxyGet(t, pts.URL, origin.URL+"/a.html", nil) // hit
	proxyGet(t, pts.URL, origin.URL+"/a.html", http.Header{"Pragma": {"no-cache"}})
	proxyGet(t, pts.URL, origin.URL+"/q?x=1", nil) // uncacheable

	icp, err := NewICPResponder(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer icp.Close()
	c := &ICPClient{Timeout: 500 * time.Millisecond}
	if c.QuerySiblings([]Sibling{{ICPAddr: icp.Addr(), Proxy: "http://unused"}}, origin.URL+"/a.html") == nil {
		t.Fatal("ICP query missed a cached URL")
	}

	st := store.Stats()
	if st.Gets != 2 || st.Hits != 1 {
		t.Fatalf("store stats %+v, want 2 gets / 1 hit", st)
	}
	snap := reg.Snapshot()
	if got := snap["store.window_gets"]; got != st.Gets {
		t.Errorf("store.window_gets = %v, store counted %d gets", got, st.Gets)
	}
	if got := snap["store.window_hits"]; got != st.Hits {
		t.Errorf("store.window_hits = %v, store counted %d hits", got, st.Hits)
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
	srv := stubServer("ok")
	var buf syncBuffer
	l := NewAccessLogger(&buf)
	l.SetSample(4)
	srv.AccessLog = l
	pts := httptest.NewServer(srv)
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
	srv := stubServer("ok")
	l := NewAccessLogger(nil)
	srv.AccessLog = l
	pts := httptest.NewServer(srv)
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
	srv := stubServer("")
	l := NewAccessLogger(nil)
	srv.AccessLog = l
	pts := httptest.NewServer(srv)
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

// roundTripFunc is an http.RoundTripper made of a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// stubServer returns a proxy whose every upstream fetch, whatever its
// host, is answered at once with a 200 and body.
func stubServer(body string) *Server {
	srv := New(NewStore(1<<20, nil))
	srv.Transport = roundTripFunc(func(*http.Request) (*http.Response, error) {
		return &http.Response{
			StatusCode:    http.StatusOK,
			Header:        http.Header{},
			ContentLength: int64(len(body)),
			Body:          io.NopCloser(strings.NewReader(body)),
		}, nil
	})
	return srv
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
