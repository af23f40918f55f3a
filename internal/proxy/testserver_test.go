package proxy

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// testServer serves a handler on a loopback port. Close waits for every
// handler to return.
type testServer struct {
	URL      string
	Listener net.Listener
	close    func()
	once     sync.Once
}

func (ts *testServer) Close() { ts.once.Do(ts.close) }

// newConnTestServer serves h through ConnServer, as cmd/proxy serves its
// traffic listener.
func newConnTestServer(t testing.TB, h http.Handler) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewConnServer(h)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	ts := &testServer{URL: "http://" + ln.Addr().String(), Listener: ln}
	ts.close = func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	}
	t.Cleanup(ts.Close)
	return ts
}

// newHTTPTestServer serves h through net/http, as an in-process embedder
// of the proxy does.
func newHTTPTestServer(t testing.TB, h http.Handler) *testServer {
	t.Helper()
	hs := httptest.NewServer(h)
	ts := &testServer{URL: hs.URL, Listener: hs.Listener, close: hs.Close}
	t.Cleanup(ts.Close)
	return ts
}

// serveFunc starts a testServer for a handler.
type serveFunc func(testing.TB, http.Handler) *testServer

// forEachServer runs f as a subtest for each way the proxy's handler is
// served: through ConnServer, as cmd/proxy serves it, and through
// net/http, as an in-process embedder does.
func forEachServer(t *testing.T, f func(t *testing.T, serve serveFunc)) {
	for _, s := range []struct {
		name  string
		serve serveFunc
	}{{"owned", newConnTestServer}, {"net-http", newHTTPTestServer}} {
		t.Run(s.name, func(t *testing.T) { f(t, s.serve) })
	}
}
