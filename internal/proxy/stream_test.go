package proxy

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/obs"
)

// pattern is the first n bytes of the test origins' body: a period of
// 251 never lines up with a power-of-two chunk, so a dropped, repeated
// or reordered chunk changes the bytes.
func pattern(n int64) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i % 251)
	}
	return b
}

// sizedOrigin serves /doc/<n> as n pattern bytes under a Content-Length
// and /stream/<n> as the same bytes without one (chunked, flushed in the
// middle so net/http cannot work the length out itself).
func sizedOrigin(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var fetches atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		kind, num, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
		n, err := strconv.ParseInt(num, 10, 64)
		if err != nil {
			http.NotFound(w, r)
			return
		}
		body := pattern(n)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Last-Modified", time.Unix(800000000, 0).UTC().Format(http.TimeFormat))
		if kind == "doc" {
			w.Header().Set("Content-Length", num)
			w.Write(body)
			return
		}
		w.Write(body[:n/2])
		w.(http.Flusher).Flush()
		w.Write(body[n/2:])
	}))
	t.Cleanup(ts.Close)
	return ts, &fetches
}

// proxyClient returns a client that sends everything through proxyURL.
func proxyClient(t *testing.T, proxyURL string) *http.Client {
	t.Helper()
	pu, err := url.Parse(proxyURL)
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{Proxy: http.ProxyURL(pu)}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// fetch GETs target and returns the response with its body read, or the
// error that cut the transfer short.
func fetch(c *http.Client, target string, hdr http.Header) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, target, nil)
	if err != nil {
		return nil, nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// TestMissStreamsByteExact drives every branch of the miss path by body
// size: each document arrives byte for byte under the right headers, a
// cacheable one is a HIT with the same bytes on the second request, one
// past MaxObjectBytes or past the quota of the store (or of its shard)
// is delivered whole and not kept, and the byte counters agree with the
// wire.
func TestMissStreamsByteExact(t *testing.T) {
	single := func(capacity int64) func() ObjectStore {
		return func() ObjectStore { return NewStore(capacity, nil) }
	}
	sharded := func(capacity int64, shards int) func() ObjectStore {
		return func() ObjectStore { return NewShardedStore(capacity, shards, nil) }
	}
	const defaultMax = 8 << 20
	cases := []struct {
		name      string
		store     func() ObjectStore
		maxObject int64 // 0 keeps the default
		path      string
		size      int64
		cached    bool
	}{
		{"empty", single(1 << 20), 0, "doc", 0, true},
		{"one byte", single(1 << 20), 0, "doc", 1, true},
		{"4095", single(1 << 20), 0, "doc", 4095, true},
		{"64KiB+1", single(1 << 20), 0, "doc", 64<<10 + 1, true},
		{"exactly MaxObjectBytes", single(1 << 20), 128 << 10, "doc", 128 << 10, true},
		{"MaxObjectBytes+10", single(32 << 20), 0, "doc", defaultMax + 10, false},
		{"store quota", single(64 << 10), 0, "doc", 64 << 10, true},
		{"store quota+1", single(64 << 10), 0, "doc", 64<<10 + 1, false},
		{"shard quota", sharded(256<<10, 4), 0, "doc", 64 << 10, true},
		{"shard quota+1", sharded(256<<10, 4), 0, "doc", 64<<10 + 1, false},
		{"unknown length", single(1 << 20), 0, "stream", 100 << 10, true},
		{"unknown length, empty", single(1 << 20), 0, "stream", 0, true},
		{"unknown length past MaxObjectBytes", single(1 << 20), 64 << 10, "stream", 200 << 10, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			forEachServer(t, func(t *testing.T, serve serveFunc) {
				origin, fetches := sizedOrigin(t)
				store := tc.store()
				srv := New(store)
				if tc.maxObject > 0 {
					srv.MaxObjectBytes = tc.maxObject
				}
				var logged bytes.Buffer
				logger := NewAccessLogger(srv, &logged)
				pts := serve(t, logger)
				defer pts.Close()
				client := proxyClient(t, pts.URL)
				target := fmt.Sprintf("%s/%s/%d", origin.URL, tc.path, tc.size)
				want := pattern(tc.size)

				second := "MISS"
				if tc.cached {
					second = "HIT"
				}
				for i, verdict := range []string{"MISS", second} {
					resp, body, err := fetch(client, target, nil)
					if err != nil {
						t.Fatalf("request %d: %v", i, err)
					}
					if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != verdict {
						t.Fatalf("request %d: status %d, X-Cache %q, want 200 %s", i, resp.StatusCode, resp.Header.Get("X-Cache"), verdict)
					}
					if !bytes.Equal(body, want) {
						t.Fatalf("request %d: %d body bytes differ from the origin's %d", i, len(body), len(want))
					}
					if tc.path == "doc" || verdict == "HIT" {
						if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(tc.size) {
							t.Fatalf("request %d: Content-Length %q, want %d", i, cl, tc.size)
						}
					}
					if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
						t.Fatalf("request %d: Content-Type %q", i, ct)
					}
					if resp.Header.Get("Last-Modified") == "" {
						t.Fatalf("request %d: no Last-Modified", i)
					}
				}
				// The client has the last byte before the handler has done
				// its accounting; Close waits for the handlers.
				pts.Close()
				wantFetches, wantDocs := int64(1), 1
				if !tc.cached {
					wantFetches, wantDocs = 2, 0
				}
				if got := fetches.Load(); got != wantFetches {
					t.Errorf("origin fetched %d times, want %d", got, wantFetches)
				}
				if got := store.Len(); got != wantDocs {
					t.Errorf("store holds %d objects, want %d", got, wantDocs)
				}
				if st := srv.Stats(); st.BytesServed != 2*tc.size || st.Errors != 0 {
					t.Errorf("stats %+v, want %d bytes served and no errors", st, 2*tc.size)
				}
				if err := logger.Flush(); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(logged.String()), "\n")
				if len(lines) != 2 {
					t.Fatalf("%d access-log lines, want 2:\n%s", len(lines), logged.String())
				}
				for _, line := range lines {
					f := strings.Fields(line)
					if f[len(f)-1] != fmt.Sprint(tc.size) || f[len(f)-2] != "200" {
						t.Errorf("access log %q, want status 200 and %d bytes", line, tc.size)
					}
				}
			})
		})
	}
}

// brokenOrigin answers every request on a raw socket with the head and
// however much body the nth request's reply function gives it, then
// closes: what a crashed or lying origin looks like to the transport.
func brokenOrigin(t *testing.T, reply func(n int64) string) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var served atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed by the cleanup
			}
			if _, err := http.ReadRequest(bufio.NewReader(c)); err == nil {
				io.WriteString(c, reply(served.Add(1)))
			}
			c.Close()
		}
	}()
	return "http://" + ln.Addr().String(), &served
}

// TestMissOriginFailsMidBody cuts the origin off after the proxy has
// committed to a 200: the client must see a broken transfer, never a
// complete document; the failure is counted and traced as an error;
// nothing is cached and a copy cached earlier survives; the next request
// fetches again.
func TestMissOriginFailsMidBody(t *testing.T) {
	head := func(declared int) string {
		return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n", declared)
	}
	for _, declared := range []int{100, 200 << 10} { // inside and past net/http's write buffer
		t.Run(fmt.Sprint(declared), func(t *testing.T) {
			forEachServer(t, func(t *testing.T, serve serveFunc) {
				good := string(pattern(int64(declared)))
				originURL, served := brokenOrigin(t, func(n int64) string {
					if n == 1 {
						return head(declared) + good[:declared/2]
					}
					return head(declared) + good
				})
				store := NewStore(1<<20, nil)
				srv := New(store)
				srv.Tracer = obs.NewTracer(obs.TracerOptions{})
				pts := serve(t, srv)
				defer pts.Close()
				client := proxyClient(t, pts.URL)
				target := originURL + "/doc.txt"
				old := &Object{Body: []byte("the copy cached earlier"), StoredAt: time.Now()}
				store.Put(target, old)

				// Pragma: no-cache forces a fetch although a copy is cached.
				_, body, err := fetch(client, target, http.Header{"Pragma": {"no-cache"}})
				if err == nil {
					t.Fatalf("client read a complete %d-byte document from an origin that sent half of %d", len(body), declared)
				}
				if st := srv.Stats(); st.Errors != 1 {
					t.Errorf("stats %+v, want one error", st)
				}
				if got, ok := store.Peek(target); !ok || got != old {
					t.Errorf("the copy cached earlier did not survive the failed refetch (have %v, %v)", got, ok)
				}
				recs := srv.Tracer.Snapshot()
				if len(recs) != 1 || !recs[0].Error || recs[0].Verdict != "ERROR" {
					t.Errorf("trace records %+v, want one errored", recs)
				}

				store.Remove(target)
				resp, body, err := fetch(client, target, nil)
				if err != nil || resp.Header.Get("X-Cache") != "MISS" || string(body) != good {
					t.Fatalf("refetch: X-Cache %q, %d bytes, err %v", resp.Header.Get("X-Cache"), len(body), err)
				}
				if served.Load() != 2 {
					t.Errorf("origin served %d requests, want 2", served.Load())
				}
				// The handler stores the body after the client has its last
				// byte; Close waits for the handler.
				pts.Close()
				if _, ok := store.Peek(target); !ok {
					t.Error("the complete refetch was not cached")
				}
			})
		})
	}
}

// TestMissOriginBodyOverrun covers the other way a length can lie: an
// origin that sends more than its Content-Length. The declared length
// frames the document (net/http's transport cuts the body there and
// drops the connection), so client and cache get exactly that much, and
// the next fetch is not confused by the surplus.
func TestMissOriginBodyOverrun(t *testing.T) {
	forEachServer(t, func(t *testing.T, serve serveFunc) {
		const declared = 100
		body := string(pattern(declared))
		originURL, served := brokenOrigin(t, func(int64) string {
			return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s and a surplus", declared, body)
		})
		store := NewStore(1<<20, nil)
		srv := New(store)
		pts := serve(t, srv)
		defer pts.Close()
		client := proxyClient(t, pts.URL)
		targets := []string{originURL + "/one.txt", originURL + "/two.txt"}
		for i, target := range targets {
			resp, got, err := fetch(client, target, nil)
			if err != nil || resp.Header.Get("X-Cache") != "MISS" || string(got) != body {
				t.Fatalf("fetch %d: X-Cache %q, %d bytes, err %v; want the %d declared bytes", i, resp.Header.Get("X-Cache"), len(got), err, declared)
			}
		}
		// Each handler stores its body after the client has the last byte;
		// Close waits for the handlers.
		pts.Close()
		for i, target := range targets {
			if obj, ok := store.Peek(target); !ok || string(obj.Body) != body {
				t.Fatalf("fetch %d: cached %v, want the declared bytes", i, obj)
			}
		}
		if st := srv.Stats(); st.Errors != 0 || served.Load() != 2 {
			t.Errorf("stats %+v, origin served %d; want no errors and 2", st, served.Load())
		}
	})
}

// TestMissClientDisconnectCancelsFetch has the origin stall after its
// head and 64 KiB of body, and the client hang up: the fetch is
// cancelled, on the route that keeps the body and on the one that
// relays it. The handler returns within a second, the origin sees its
// connection closed rather than pooled, no error is counted, and no
// goroutine is left behind.
func TestMissClientDisconnectCancelsFetch(t *testing.T) {
	const size, sent = 256 << 10, 64 << 10
	for _, tc := range []struct {
		name      string
		maxObject int64
	}{{"kept", 8 << 20}, {"relayed", 128 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			forEachServer(t, func(t *testing.T, serve serveFunc) {
				before := runtime.NumGoroutine()
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				originClosed := make(chan struct{})
				go func() {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					defer c.Close()
					br := bufio.NewReader(c)
					if _, err := http.ReadRequest(br); err != nil {
						return
					}
					fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", size)
					c.Write(pattern(sent))
					io.Copy(io.Discard, br) // stall until the proxy closes the connection
					close(originClosed)
				}()
				defer ln.Close()

				srv := New(NewStore(1<<20, nil))
				srv.MaxObjectBytes = tc.maxObject
				returned := make(chan struct{})
				pts := serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					defer close(returned)
					srv.ServeHTTP(w, r)
				}))
				defer pts.Close()

				c, err := net.Dial("tcp", pts.Listener.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				target := "http://" + ln.Addr().String() + "/doc.bin"
				fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", target, ln.Addr())
				resp, err := http.ReadResponse(bufio.NewReader(c), nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := io.ReadFull(resp.Body, make([]byte, 1)); err != nil {
					t.Fatal(err)
				}
				c.Close()

				for what, ch := range map[string]chan struct{}{"the handler returned": returned, "the origin connection closed": originClosed} {
					select {
					case <-ch:
					case <-time.After(time.Second):
						t.Fatalf("%s more than a second after the client hung up", what)
					}
				}
				if st := srv.Stats(); st.Errors != 0 {
					t.Errorf("stats %+v, want no error for a client that left", st)
				}
				pts.Close()
				ln.Close()
				srv.CloseIdleConnections()
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
					if time.Now().After(deadline) {
						buf := make([]byte, 1<<20)
						t.Fatalf("goroutines: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
					}
				}
			})
		})
	}
}

// TestAdmitsAgreesWithPut is the property the miss path rests on: for
// sizes around the quota, Admits answers what Put then does — on the
// single store, on a sharded store, and on each shard after a skewed
// load filled one of them.
func TestAdmitsAgreesWithPut(t *testing.T) {
	check := func(t *testing.T, s ObjectStore, url string, quota int64) {
		t.Helper()
		for _, size := range []int64{0, 1, quota / 2, quota - 1, quota, quota + 1, 2 * quota} {
			admits := s.Admits(url, size)
			if put := s.Put(url, &Object{Body: make([]byte, size)}); put != admits {
				t.Fatalf("%s, quota %d, size %d: Admits %v but Put %v", url, quota, size, admits, put)
			}
			if admits != (size <= quota) {
				t.Fatalf("%s, quota %d, size %d: Admits %v", url, quota, size, admits)
			}
		}
	}
	rnd := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		capacity := 1 + rnd.Int63n(64<<10)
		single := NewStore(capacity, nil)
		check(t, single, fmt.Sprintf("http://a.example/%d", i), capacity)

		shards := 1 + rnd.Intn(8)
		sh := NewShardedStore(capacity, shards, nil)
		for j := 0; j < 8; j++ {
			url := fmt.Sprintf("http://b.example/%d/%d", i, j)
			check(t, sh, url, sh.shard(url).Stats().Capacity)
		}
	}

	const capacity, shards = 64 << 10, 4
	sh := NewShardedStore(capacity, shards, nil)
	for _, url := range urlsForShard(shards, 0, 64) {
		sh.Put(url, &Object{Body: make([]byte, 1024)})
	}
	for i := 0; i < shards; i++ {
		check(t, sh, urlsForShard(shards, i, 1)[0], capacity/shards)
	}
}

// memOrigin is an in-memory transport: every request gets size pattern
// bytes, in reads of at most 16 KiB with io.EOF alongside the last one,
// the shape a socket gives net/http's body reader.
type memOrigin struct {
	size    int64
	unknown bool // no Content-Length
}

type memBody struct{ left int64 }

func (b *memBody) Read(p []byte) (int, error) {
	n := min(int64(len(p)), 16<<10, b.left)
	b.left -= n
	if b.left == 0 {
		return int(n), io.EOF
	}
	return int(n), nil
}

func (b *memBody) Close() error { return nil }

func (o memOrigin) RoundTrip(*http.Request) (*http.Response, error) {
	resp := &http.Response{StatusCode: http.StatusOK, ContentLength: o.size, Body: &memBody{left: o.size}}
	if o.unknown {
		resp.ContentLength = -1
	}
	return resp, nil
}

// discardWriter is a ResponseWriter that counts and drops the body.
type discardWriter struct {
	h http.Header
	n int64
}

func (w *discardWriter) Header() http.Header { return w.h }
func (w *discardWriter) WriteHeader(int)     {}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// missHarness serves one forced miss per call of the returned function,
// with no sockets involved, so allocation figures are the proxy's own.
func missHarness(tb testing.TB, capacity, size int64) (miss func(), store *Store) {
	store = NewStore(capacity, nil)
	srv := New(store)
	srv.Transport = memOrigin{size: size}
	req := httptest.NewRequest(http.MethodGet, "http://origin.example/doc.bin", nil)
	req.Header.Set("Pragma", "no-cache")
	w := &discardWriter{h: http.Header{}}
	return func() {
		w.n = 0
		srv.ServeHTTP(w, req)
		if w.n != size {
			tb.Fatalf("served %d bytes, want %d", w.n, size)
		}
	}, store
}

// TestMissBodyAllocations pins what a miss may hold: a cacheable body is
// allocated once at its final size (no regrowth), and a body the store
// would reject costs the pooled copy buffer at most, however large it is.
func TestMissBodyAllocations(t *testing.T) {
	const size = 1 << 20
	perMiss := func(miss func()) int64 {
		miss() // warm the pools
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			miss()
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / runs
	}

	miss, store := missHarness(t, 4*size, size)
	if got := perMiss(miss); got >= size+16<<10 {
		t.Errorf("a cacheable %d-byte miss allocates %d bytes, want under body + 16 KiB", size, got)
	}
	if store.Len() != 1 {
		t.Fatalf("cacheable miss left %d objects in the store", store.Len())
	}

	miss, store = missHarness(t, size/2, size)
	// 64 KiB plus the copy buffer: under the race detector sync.Pool
	// drops a share of its Puts, so a run may have to allocate it anew.
	if got := perMiss(miss); got >= 64<<10+relayBufSize {
		t.Errorf("an inadmissible %d-byte miss allocates %d bytes, want under 64 KiB + the copy buffer", size, got)
	}
	if store.Len() != 0 {
		t.Fatalf("inadmissible miss left %d objects in the store", store.Len())
	}
}

func BenchmarkMissBody(b *testing.B) {
	for _, size := range []int64{12 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			miss, _ := missHarness(b, 4*size, size)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				miss()
			}
		})
	}
}
