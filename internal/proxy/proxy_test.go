package proxy

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/policy"
)

func TestStorePutGet(t *testing.T) {
	s := NewStore(1000, nil)
	now := time.Unix(1_000_000, 0)
	s.SetClock(func() time.Time { return now })
	obj := &Object{Body: []byte("hello"), ContentType: "text/plain", StoredAt: now}
	if !s.Put("http://a/x", obj) {
		t.Fatal("Put failed")
	}
	got, ok := s.Get("http://a/x")
	if !ok || string(got.Body) != "hello" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if _, ok := s.Get("http://a/missing"); ok {
		t.Fatal("Get on missing key succeeded")
	}
	want := StoreStats{Gets: 2, Hits: 1, Puts: 1, Used: 5, MaxUsed: 5, Docs: 1, Capacity: 1000}
	if st := s.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}

	// The hit updates the entry before Get returns: ATime becomes the
	// hit's time on the store clock, NRef counts the hit, and ETime still
	// says when it entered. Each shows as the victim a policy ranking on
	// those fields picks: a and b enter at 1 and 2, the hits follow one a
	// second, and c then needs one of their places. In the last case
	// both are hit, so NRef ties and the older ETime (a) must go.
	for _, tc := range []struct {
		name   string
		keys   []policy.Key
		hits   []string
		victim string
	}{
		{"LRU", []policy.Key{policy.KeyATime}, []string{"a"}, "b"},
		{"LFU", []policy.Key{policy.KeyNRef, policy.KeyETime}, []string{"a"}, "b"},
		{"LFU/FIFO", []policy.Key{policy.KeyNRef, policy.KeyETime}, []string{"b", "a"}, "a"},
	} {
		s := NewStore(200, policy.NewSorted(tc.keys, 0))
		sec := int64(1)
		s.SetClock(func() time.Time { return time.Unix(sec, 0) })
		s.Put("http://a/a", &Object{Body: make([]byte, 100)})
		sec++
		s.Put("http://a/b", &Object{Body: make([]byte, 100)})
		for _, doc := range tc.hits {
			sec++
			if _, ok := s.Get("http://a/" + doc); !ok {
				t.Fatalf("%s: hit on %s missed", tc.name, doc)
			}
		}
		sec++
		s.Put("http://a/c", &Object{Body: make([]byte, 100)})
		if _, ok := s.Peek("http://a/" + tc.victim); ok {
			t.Errorf("%s: %s survived; the hits did not stamp the entries as the simulator does", tc.name, tc.victim)
		}
		if st := s.Stats(); st.Evictions != 1 || st.Docs != 2 {
			t.Errorf("%s: stats %+v, want one eviction and two documents", tc.name, st)
		}
	}
}

func TestStoreEvictionBySize(t *testing.T) {
	s := NewStore(100, policy.NewSorted([]policy.Key{policy.KeySize}, 0))
	s.Put("http://a/big", &Object{Body: make([]byte, 70)})
	s.Put("http://a/small", &Object{Body: make([]byte, 20)})
	// Inserting 40 bytes forces eviction of the biggest object.
	s.Put("http://a/new", &Object{Body: make([]byte, 40)})
	if _, ok := s.Get("http://a/big"); ok {
		t.Fatal("SIZE policy kept the biggest object")
	}
	if _, ok := s.Get("http://a/small"); !ok {
		t.Fatal("small object evicted")
	}
	if st := s.Stats(); st.Evictions != 1 || st.Used > 100 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStoreRejectsOversized(t *testing.T) {
	s := NewStore(10, nil)
	if s.Put("http://a/huge", &Object{Body: make([]byte, 50)}) {
		t.Fatal("oversized Put succeeded")
	}
	if s.Len() != 0 {
		t.Fatal("oversized object stored")
	}
}

func TestStoreReplace(t *testing.T) {
	s := NewStore(1000, nil)
	s.Put("http://a/x", &Object{Body: []byte("v1")})
	s.Put("http://a/x", &Object{Body: []byte("version2")})
	got, _ := s.Get("http://a/x")
	if string(got.Body) != "version2" {
		t.Fatalf("body %q", got.Body)
	}
	if st := s.Stats(); st.Used != 8 || st.Docs != 1 {
		t.Fatalf("stats after replace %+v", st)
	}
}

func TestStoreRemove(t *testing.T) {
	s := NewStore(1000, nil)
	s.Put("http://a/x", &Object{Body: []byte("abc")})
	s.Remove("http://a/x")
	if s.Len() != 0 || s.Stats().Used != 0 {
		t.Fatal("Remove left residue")
	}
	s.Remove("http://a/x") // idempotent
}

// originServer is a configurable test origin.
type originServer struct {
	hits    atomic.Int64
	lastMod time.Time
	body    string
}

func (o *originServer) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		o.hits.Add(1)
		if ims := r.Header.Get("If-Modified-Since"); ims != "" {
			if t, err := http.ParseTime(ims); err == nil && !o.lastMod.After(t.Add(time.Second)) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		w.Header().Set("Last-Modified", o.lastMod.UTC().Format(http.TimeFormat))
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, o.body)
	}
}

// proxyGet issues a GET through the proxy for the origin URL.
func proxyGet(t *testing.T, proxyURL, target string, hdr http.Header) (*http.Response, string) {
	t.Helper()
	pu, err := url.Parse(proxyURL)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(pu)}}
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func newProxyServer(t *testing.T, freshFor time.Duration) (*Server, *testServer) {
	t.Helper()
	srv := New(NewStore(1<<20, nil))
	srv.FreshFor = freshFor
	return srv, newConnTestServer(t, srv)
}

func TestProxyHitMiss(t *testing.T) {
	origin := &originServer{body: "<html>doc</html>", lastMod: time.Now().Add(-time.Hour)}
	ots := httptest.NewServer(origin.handler())
	defer ots.Close()

	srv, pts := newProxyServer(t, time.Minute)
	target := ots.URL + "/page.html"

	resp, body := proxyGet(t, pts.URL, target, nil)
	if body != origin.body || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("first fetch: %q %q", body, resp.Header.Get("X-Cache"))
	}
	resp, body = proxyGet(t, pts.URL, target, nil)
	if body != origin.body || resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("second fetch: %q %q", body, resp.Header.Get("X-Cache"))
	}
	if origin.hits.Load() != 1 {
		t.Fatalf("origin contacted %d times, want 1", origin.hits.Load())
	}
	st := srv.Stats()
	if st.Requests != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("proxy stats %+v", st)
	}
}

func TestProxyRevalidation(t *testing.T) {
	origin := &originServer{body: "stable content", lastMod: time.Now().Add(-time.Hour)}
	ots := httptest.NewServer(origin.handler())
	defer ots.Close()

	srv, pts := newProxyServer(t, 0) // everything is stale immediately
	target := ots.URL + "/doc.html"

	proxyGet(t, pts.URL, target, nil)
	resp, body := proxyGet(t, pts.URL, target, nil)
	if resp.Header.Get("X-Cache") != "REVALIDATED" {
		t.Fatalf("X-Cache = %q, want REVALIDATED", resp.Header.Get("X-Cache"))
	}
	if body != origin.body {
		t.Fatalf("body %q", body)
	}
	if st := srv.Stats(); st.Revalidated != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The origin served the 304 cheaply but was contacted twice total.
	if origin.hits.Load() != 2 {
		t.Fatalf("origin hits %d", origin.hits.Load())
	}
}

// TestConcurrentRevalidations has two clients revalidate one stale URL
// at once against an origin that answers 304: each hit reads the
// object's StoredAt while the other's Refresh re-stamps it, which the
// race detector reports unless Refresh leaves a served object as it is.
func TestConcurrentRevalidations(t *testing.T) {
	origin := &originServer{body: "stable content", lastMod: time.Now().Add(-time.Hour)}
	ots := httptest.NewServer(origin.handler())
	defer ots.Close()
	srv, pts := newProxyServer(t, 0) // everything is stale immediately
	target := ots.URL + "/doc.html"
	proxyGet(t, pts.URL, target, nil)

	client := proxyClient(t, pts.URL)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				resp, body, err := fetch(client, target, nil)
				if err != nil || resp.Header.Get("X-Cache") != "REVALIDATED" || string(body) != origin.body {
					t.Errorf("revalidated fetch: %v, %q", err, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := srv.Stats(); st.Revalidated != 100 {
		t.Errorf("stats %+v, want 100 revalidations", st)
	}
}

func TestProxyChangedDocumentRefetched(t *testing.T) {
	origin := &originServer{body: "v1", lastMod: time.Now().Add(-time.Hour)}
	ots := httptest.NewServer(origin.handler())
	defer ots.Close()

	_, pts := newProxyServer(t, 0)
	target := ots.URL + "/changing.html"

	proxyGet(t, pts.URL, target, nil)
	origin.body = "v2 much longer"
	origin.lastMod = time.Now().Add(time.Hour) // modified after the cached copy
	_, body := proxyGet(t, pts.URL, target, nil)
	if body != "v2 much longer" {
		t.Fatalf("stale body served: %q", body)
	}
}

func TestProxyUncacheable(t *testing.T) {
	origin := &originServer{body: "q", lastMod: time.Now()}
	ots := httptest.NewServer(origin.handler())
	defer ots.Close()

	srv, pts := newProxyServer(t, time.Minute)

	// Query strings are dynamic documents: never cached.
	proxyGet(t, pts.URL, ots.URL+"/search?q=x", nil)
	proxyGet(t, pts.URL, ots.URL+"/search?q=x", nil)
	if origin.hits.Load() != 2 {
		t.Fatalf("dynamic document served from cache (origin hits %d)", origin.hits.Load())
	}
	// Authorization suppresses caching too.
	proxyGet(t, pts.URL, ots.URL+"/private.html", http.Header{"Authorization": []string{"Basic xyz"}})
	proxyGet(t, pts.URL, ots.URL+"/private.html", http.Header{"Authorization": []string{"Basic xyz"}})
	if origin.hits.Load() != 4 {
		t.Fatalf("authorized document cached (origin hits %d)", origin.hits.Load())
	}
	if st := srv.Stats(); st.Uncacheable != 4 {
		t.Fatalf("stats %+v", st)
	}
}

func TestProxyPragmaNoCache(t *testing.T) {
	origin := &originServer{body: "fresh", lastMod: time.Now().Add(-time.Hour)}
	ots := httptest.NewServer(origin.handler())
	defer ots.Close()

	srv, pts := newProxyServer(t, time.Hour)
	target := ots.URL + "/page.html"
	proxyGet(t, pts.URL, target, nil)
	before := srv.Store().Stats()
	resp, _ := proxyGet(t, pts.URL, target, http.Header{"Pragma": []string{"no-cache"}})
	if resp.Header.Get("X-Cache") == "HIT" {
		t.Fatal("Pragma: no-cache served from cache")
	}
	// The reload is no store request: it neither counts a get nor a hit.
	if after := srv.Store().Stats(); after.Gets != before.Gets || after.Hits != before.Hits {
		t.Fatalf("no-cache reload moved the store: gets %d -> %d, hits %d -> %d",
			before.Gets, after.Gets, before.Hits, after.Hits)
	}
}

func TestProxyNon200NotCached(t *testing.T) {
	ots := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	defer ots.Close()

	srv, pts := newProxyServer(t, time.Minute)
	resp, _ := proxyGet(t, pts.URL, ots.URL+"/missing.html", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if srv.Store().Len() != 0 {
		t.Fatal("404 response cached")
	}
}

// TestProxyHierarchy chains a child proxy to a parent proxy: a document
// evicted nowhere is served from the parent on a child miss without
// touching the origin (Experiment 3's arrangement, live).
func TestProxyHierarchy(t *testing.T) {
	origin := &originServer{body: strings.Repeat("x", 1000), lastMod: time.Now().Add(-time.Hour)}
	ots := httptest.NewServer(origin.handler())
	defer ots.Close()

	parentSrv := New(NewStore(1<<20, nil))
	parentTS := httptest.NewServer(parentSrv)
	defer parentTS.Close()

	childSrv := New(NewStore(1<<20, nil))
	pu, _ := url.Parse(parentTS.URL)
	childSrv.Transport = &http.Transport{Proxy: http.ProxyURL(pu)}
	childTS := httptest.NewServer(childSrv)
	defer childTS.Close()

	target := ots.URL + "/shared.html"
	proxyGet(t, childTS.URL, target, nil) // populates both levels
	if origin.hits.Load() != 1 {
		t.Fatalf("origin hits %d", origin.hits.Load())
	}
	// Drop the document from the child only; the parent must answer.
	childSrv.Store().Remove(target)
	resp, body := proxyGet(t, childTS.URL, target, nil)
	if body != origin.body {
		t.Fatalf("body length %d", len(body))
	}
	if origin.hits.Load() != 1 {
		t.Fatalf("origin contacted again (%d hits); parent did not serve", origin.hits.Load())
	}
	if resp.Header.Get("X-Cache") != "MISS" {
		// The child reports MISS; the parent served it (its stats say HIT).
		t.Fatalf("child X-Cache %q", resp.Header.Get("X-Cache"))
	}
	if parentSrv.Stats().Hits != 1 {
		t.Fatalf("parent stats %+v", parentSrv.Stats())
	}
}

func TestCacheableRules(t *testing.T) {
	mk := func(method, rawurl string, hdr http.Header) *http.Request {
		u, _ := url.Parse(rawurl)
		r := &http.Request{Method: method, URL: u, Header: hdr}
		if hdr == nil {
			r.Header = http.Header{}
		}
		return r
	}
	if !Cacheable(mk("GET", "http://a/x.html", nil)) {
		t.Error("plain GET not cacheable")
	}
	if Cacheable(mk("POST", "http://a/x.html", nil)) {
		t.Error("POST cacheable")
	}
	if Cacheable(mk("GET", "http://a/x?y=1", nil)) {
		t.Error("query cacheable")
	}
	if Cacheable(mk("GET", "http://a/cgi-bin/z", nil)) {
		t.Error("cgi-bin cacheable")
	}
	if Cacheable(mk("GET", "http://a/x.html", http.Header{"Authorization": []string{"Basic"}})) {
		t.Error("authorized cacheable")
	}
}
