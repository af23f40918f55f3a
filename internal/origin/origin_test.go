package origin

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"webcache/internal/trace"
)

func testTrace() *trace.Trace {
	return &trace.Trace{Name: "t", Start: 800000000 - 800000000%86400, Requests: []trace.Request{
		{Time: 800000000, URL: "http://s1.vt.edu/a.gif", Status: 200, Size: 1000, Type: trace.Graphics},
		{Time: 800000010, URL: "http://s2.vt.edu/b.html", Status: 200, Size: 250, Type: trace.Text},
		{Time: 800000020, URL: "http://s1.vt.edu/broken.html", Status: 404, Size: 0, Type: trace.Text},
	}}
}

func TestFromTraceDocs(t *testing.T) {
	s := FromTrace(testTrace())
	if s.Docs() != 2 {
		t.Fatalf("Docs = %d, want 2 (the 404 is not servable)", s.Docs())
	}
}

func TestServeBodySize(t *testing.T) {
	s := FromTrace(testTrace())
	ts := httptest.NewServer(s)
	defer ts.Close()

	client := &http.Client{Transport: RewriteTransport(ts.Listener.Addr().String())}
	resp, err := client.Get("http://s1.vt.edu/a.gif")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 1000 {
		t.Fatalf("body %d bytes, want 1000", len(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/gif" {
		t.Fatalf("content type %q", ct)
	}
	if resp.Header.Get("Last-Modified") == "" {
		t.Fatal("no Last-Modified header")
	}
	// Deterministic body pattern.
	if body[0] != 'a' || body[25] != 'z' || body[26] != 'a' {
		t.Fatalf("unexpected pattern start: %q", body[:30])
	}
	// The handler counts the fetch after its last byte is on the wire,
	// so the client can have the whole body first; Close waits for it.
	ts.Close()
	n, by := s.Fetches()
	if n != 1 || by != 1000 {
		t.Fatalf("fetches %d/%d", n, by)
	}
}

func TestServeNotFound(t *testing.T) {
	s := FromTrace(testTrace())
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{Transport: RewriteTransport(ts.Listener.Addr().String())}
	resp, err := client.Get("http://s1.vt.edu/missing.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestServeConditionalGet(t *testing.T) {
	s := FromTrace(testTrace())
	ts := httptest.NewServer(s)
	defer ts.Close()
	client := &http.Client{Transport: RewriteTransport(ts.Listener.Addr().String())}

	req, err := http.NewRequest(http.MethodGet, "http://s2.vt.edu/b.html", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-Modified-Since", time.Now().UTC().Format(http.TimeFormat))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("status %d, want 304", resp.StatusCode)
	}
}

func TestPatternReader(t *testing.T) {
	p := &patternReader{remaining: 60}
	got, err := io.ReadAll(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Fatalf("read %d bytes", len(got))
	}
	if !strings.HasPrefix(string(got), "abcdefghijklmnopqrstuvwxyzabcdef") {
		t.Fatalf("pattern %q", got[:32])
	}
}
