package proxy

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// headerWriter is a ResponseWriter that keeps its header map and
// discards everything else.
type headerWriter struct{ h http.Header }

func (w *headerWriter) Header() http.Header         { return w.h }
func (w *headerWriter) WriteHeader(int)             {}
func (w *headerWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestServeObjectHeaders pins the headers a stored object is served
// with: each entity header only when the object has it, the date in GMT,
// and no value a later Add could append into.
func TestServeObjectHeaders(t *testing.T) {
	lastMod := time.Date(1995, time.September, 17, 14, 0, 0, 0, time.FixedZone("EDT", -4*3600))
	const date = "Sun, 17 Sep 1995 18:00:00 GMT"
	for _, tc := range []struct {
		name string
		obj  *Object
		want http.Header
	}{
		{"type and date", &Object{Body: []byte("<html></html>"), ContentType: "text/html", LastModified: lastMod},
			http.Header{"Content-Type": {"text/html"}, "Last-Modified": {date}, "Content-Length": {"13"}}},
		{"type only", &Object{Body: []byte("GIF89a"), ContentType: "image/gif"},
			http.Header{"Content-Type": {"image/gif"}, "Content-Length": {"6"}}},
		{"date only", &Object{Body: make([]byte, 12345), LastModified: lastMod},
			http.Header{"Last-Modified": {date}, "Content-Length": {"12345"}}},
		{"empty body, no entity headers", &Object{},
			http.Header{"Content-Length": {"0"}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(NewStore(1<<20, nil))
			if !s.store.Put("http://h/doc", tc.obj) {
				t.Fatal("Put refused the object")
			}
			obj, _ := s.store.Get("http://h/doc")
			for _, xc := range [][]string{xCacheHit, xCacheRevalidated} {
				got := &headerWriter{h: http.Header{}}
				s.serveObject(got, obj, xc, &record{})
				want := tc.want.Clone()
				want.Set("X-Cache", xc[0])
				if !reflect.DeepEqual(got.h, want) {
					t.Errorf("%s served headers %v, want %v", xc[0], got.h, want)
				}
				for k, vs := range got.h {
					if len(vs) != cap(vs) {
						t.Errorf("%s value %q has len %d < cap %d", k, vs, len(vs), cap(vs))
					}
				}
			}
		})
	}
}

// TestHitHeadersMatchMiss fetches a document twice through the proxy,
// once with a declared length and once chunked, and checks that the hit
// carries the miss's entity headers: the ones the miss formatted, or,
// when the origin declared no length, the ones Put formatted, now with
// the stored body's Content-Length.
func TestHitHeadersMatchMiss(t *testing.T) {
	// Past net/http's write buffer, so a response without Content-Length
	// goes out chunked instead of having one computed for it.
	page := strings.Repeat("<p>the same page for every client</p>\n", 500)
	lastMod := time.Date(1995, time.September, 17, 14, 0, 0, 0, time.UTC)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.Header().Set("Last-Modified", lastMod.Format(http.TimeFormat))
		if r.URL.Path == "/declared.html" {
			w.Header().Set("Content-Length", strconv.Itoa(len(page)))
		}
		io.WriteString(w, page)
	}))
	defer origin.Close()
	srv := New(NewStore(1<<20, nil))
	srv.FreshFor = time.Hour
	handled := make(chan struct{}, 1)
	pts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() { handled <- struct{}{} }() // a miss is stored after its last byte
		srv.ServeHTTP(w, r)
	}))
	defer pts.Close()

	for _, path := range []string{"/declared.html", "/chunked.html"} {
		miss, body := proxyGet(t, pts.URL, origin.URL+path, nil)
		<-handled
		hit, _ := proxyGet(t, pts.URL, origin.URL+path, nil)
		<-handled
		if miss.Header.Get("X-Cache") != "MISS" || hit.Header.Get("X-Cache") != "HIT" || body != page {
			t.Fatalf("%s: X-Cache %q then %q, body %q", path, miss.Header.Get("X-Cache"), hit.Header.Get("X-Cache"), body)
		}
		for _, name := range []string{"Content-Type", "Last-Modified"} {
			if got, want := hit.Header.Values(name), miss.Header.Values(name); !reflect.DeepEqual(got, want) || len(want) != 1 {
				t.Errorf("%s: hit %s %q, miss %q", path, name, got, want)
			}
		}
		if hit.ContentLength != int64(len(page)) {
			t.Errorf("%s: hit Content-Length %d, want %d", path, hit.ContentLength, len(page))
		}
		if wantMiss := map[string]int64{"/declared.html": int64(len(page)), "/chunked.html": -1}[path]; miss.ContentLength != wantMiss {
			t.Errorf("%s: miss Content-Length %d, want %d", path, miss.ContentLength, wantMiss)
		}
	}
}

// TestServeObjectAllocs pins the hit's serving step at zero allocations:
// every header value comes ready-made from Put.
func TestServeObjectAllocs(t *testing.T) {
	s := New(NewStore(1<<20, nil))
	s.store.Put("http://h/doc", &Object{Body: make([]byte, 15000), ContentType: "text/html", LastModified: time.Unix(8e8, 0)})
	obj, _ := s.store.Get("http://h/doc")
	w := &headerWriter{h: http.Header{}}
	if allocs := testing.AllocsPerRun(100, func() { s.serveObject(w, obj, xCacheHit, &record{}) }); allocs != 0 {
		t.Errorf("serveObject allocates %.0f times per hit, want 0", allocs)
	}
}
