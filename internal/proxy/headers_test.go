package proxy

import (
	"bytes"
	"compress/gzip"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestCopyEndToEnd pins which headers the proxy forwards, in either
// direction: never the fixed hop-by-hop list, never a header the
// Connection field names, everything else with all its values.
func TestCopyEndToEnd(t *testing.T) {
	cases := []struct {
		name string
		src  http.Header
		want http.Header
	}{
		{
			name: "end-to-end headers pass with every value",
			src:  http.Header{"Accept": {"text/html", "image/gif"}, "User-Agent": {"Mosaic/2.6"}},
			want: http.Header{"Accept": {"text/html", "image/gif"}, "User-Agent": {"Mosaic/2.6"}},
		},
		{
			name: "fixed hop-by-hop list",
			src: http.Header{
				"Connection": {"close"}, "Proxy-Connection": {"keep-alive"}, "Keep-Alive": {"timeout=5"},
				"Te": {"trailers"}, "Trailer": {"Expires"}, "Transfer-Encoding": {"chunked"},
				"Upgrade": {"h2c"}, "Proxy-Authorization": {"Basic Zm9v"}, "Proxy-Authenticate": {"Basic"},
				"Content-Type": {"text/plain"},
			},
			want: http.Header{"Content-Type": {"text/plain"}},
		},
		{
			name: "headers named by Connection, any case and spacing",
			src: http.Header{
				"Connection": {"keep-alive, X-Hop", " x-other ,"},
				"X-Hop":      {"1"}, "X-Other": {"2"}, "X-Kept": {"3"},
			},
			want: http.Header{"X-Kept": {"3"}},
		},
		{
			name: "empty",
			src:  http.Header{},
			want: http.Header{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := http.Header{}
			copyEndToEnd(got, tc.src)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("copied %v, want %v", got, tc.want)
			}
		})
	}
}

// TestProxyEncodedOrigins checks that the cache stores and serves
// identity bodies only. An origin that gzips on request gets no
// client's Accept-Encoding, so the transport's own gzip is decoded
// before the body is kept; an origin that encodes regardless is relayed
// with its Content-Encoding and never kept.
func TestProxyEncodedOrigins(t *testing.T) {
	const page = "<html>the same page for every client</html>"
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(page))
	zw.Close()
	cases := []struct {
		name     string
		encoding string // what the origin answers with
		body     string
		verdicts []string
	}{
		{"gzip on request", "", page, []string{"MISS", "HIT"}},
		{"undecoded encoding", "x-opaque", gz.String(), []string{"MISS", "MISS"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/html")
				switch {
				case tc.encoding != "":
					w.Header().Set("Content-Encoding", tc.encoding)
					w.Write(gz.Bytes())
				case strings.Contains(r.Header.Get("Accept-Encoding"), "gzip"):
					w.Header().Set("Content-Encoding", "gzip")
					w.Write(gz.Bytes())
				default:
					w.Write([]byte(page))
				}
			}))
			defer origin.Close()
			_, pts := newProxyServer(t, time.Minute)
			for i, verdict := range tc.verdicts {
				resp, body := proxyGet(t, pts.URL, origin.URL+"/page.html", http.Header{"Accept-Encoding": {"gzip"}})
				if got := resp.Header.Get("X-Cache"); got != verdict {
					t.Fatalf("request %d: X-Cache %q, want %q", i, got, verdict)
				}
				if got := resp.Header.Get("Content-Encoding"); got != tc.encoding {
					t.Fatalf("request %d (%s): Content-Encoding %q, want %q", i, verdict, got, tc.encoding)
				}
				if body != tc.body {
					t.Fatalf("request %d (%s): body %q, want %q", i, verdict, body, tc.body)
				}
			}
		})
	}
}

// TestHeaderSubset pins the entity-header extraction a 1.0-era cache
// performs on origin responses, including the malformed inputs a live
// proxy actually sees.
func TestHeaderSubset(t *testing.T) {
	valid := "Tue, 15 Nov 1994 08:12:31 GMT"
	validTime := time.Date(1994, time.November, 15, 8, 12, 31, 0, time.UTC)

	cases := []struct {
		name        string
		headers     http.Header
		wantType    string
		wantLastMod time.Time
	}{
		{
			name: "both present",
			headers: http.Header{
				"Content-Type":  {"text/html"},
				"Last-Modified": {valid},
			},
			wantType:    "text/html",
			wantLastMod: validTime,
		},
		{
			name:     "missing Last-Modified",
			headers:  http.Header{"Content-Type": {"image/gif"}},
			wantType: "image/gif",
		},
		{
			name: "malformed Last-Modified",
			headers: http.Header{
				"Content-Type":  {"text/plain"},
				"Last-Modified": {"not a date"},
			},
			wantType: "text/plain",
		},
		{
			name: "ANSI C asctime Last-Modified", // the third format ParseTime accepts
			headers: http.Header{
				"Last-Modified": {"Tue Nov 15 08:12:31 1994"},
			},
			wantLastMod: validTime,
		},
		{
			name: "empty Content-Type",
			headers: http.Header{
				"Content-Type":  {""},
				"Last-Modified": {valid},
			},
			wantLastMod: validTime,
		},
		{
			name:    "no entity headers at all",
			headers: http.Header{},
		},
		{
			name: "empty Last-Modified value",
			headers: http.Header{
				"Content-Type":  {"audio/basic"},
				"Last-Modified": {""},
			},
			wantType: "audio/basic",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gotType, gotLastMod := headerSubset(tc.headers)
			if gotType != tc.wantType {
				t.Errorf("content type = %q, want %q", gotType, tc.wantType)
			}
			if !gotLastMod.Equal(tc.wantLastMod) {
				t.Errorf("last modified = %v, want %v", gotLastMod, tc.wantLastMod)
			}
		})
	}
}
