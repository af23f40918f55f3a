package proxy

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/obs"
	"webcache/internal/trace"
)

func TestAccessLoggerEmitsCLF(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "hello log")
	}))
	defer origin.Close()

	srv := New(NewStore(1<<20, nil))
	var logBuf bytes.Buffer
	logger := NewAccessLogger(&logBuf)
	fixed := time.Unix(811346712, 0)
	logger.SetClock(func() time.Time { return fixed })
	srv.AccessLog = logger
	pts := httptest.NewServer(srv)
	defer pts.Close()

	target := origin.URL + "/page.html"
	proxyGet(t, pts.URL, target, nil)
	proxyGet(t, pts.URL, target, nil) // a hit; logged identically
	if err := logger.Flush(); err != nil {
		t.Fatal(err)
	}

	tr, stats, err := trace.ReadCLF(&logBuf, "proxylog")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Malformed != 0 {
		t.Fatalf("proxy emitted malformed log lines: %v", stats.FirstError)
	}
	if len(tr.Requests) != 2 {
		t.Fatalf("%d log lines, want 2", len(tr.Requests))
	}
	for i, req := range tr.Requests {
		if req.URL != target {
			t.Errorf("line %d URL %q, want %q", i, req.URL, target)
		}
		if req.Status != 200 || req.Size != int64(len("hello log")) {
			t.Errorf("line %d status/size %d/%d", i, req.Status, req.Size)
		}
		if req.Time != fixed.Unix() {
			t.Errorf("line %d time %d, want %d", i, req.Time, fixed.Unix())
		}
	}

	// The proxy's own log round-trips into the simulator's validator.
	valid, vstats := trace.Validate(tr)
	if vstats.Kept != 2 || len(valid.Requests) != 2 {
		t.Fatalf("validation of proxy log: %+v", vstats)
	}
}

func TestAccessLoggerRecords404(t *testing.T) {
	origin := httptest.NewServer(http.NotFoundHandler())
	defer origin.Close()

	srv := New(NewStore(1<<20, nil))
	var logBuf bytes.Buffer
	logger := NewAccessLogger(&logBuf)
	srv.AccessLog = logger
	pts := httptest.NewServer(srv)
	defer pts.Close()

	proxyGet(t, pts.URL, origin.URL+"/missing.html", nil)
	logger.Flush()

	tr, _, err := trace.ReadCLF(&logBuf, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) != 1 || tr.Requests[0].Status != 404 {
		t.Fatalf("log %+v", tr.Requests)
	}
}

// readFromRecorder is a ResponseRecorder that also takes bodies through
// ReadFrom, as net/http's response on a TCP connection does, and counts
// the bytes that came that way.
type readFromRecorder struct {
	*httptest.ResponseRecorder
	readFrom int64
}

func (r *readFromRecorder) ReadFrom(src io.Reader) (int64, error) {
	n, err := io.Copy(r.ResponseRecorder.Body, src)
	r.readFrom += n
	return n, err
}

// TestAccessLoggerKeepsReadFrom relays a miss the store will not keep
// through a server with an access log: the body must reach the
// writer's ReadFrom (the splice path on a real connection), and the log
// line must still carry its exact byte count.
func TestAccessLoggerKeepsReadFrom(t *testing.T) {
	const size = 300 << 10
	body := pattern(size)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(size))
		w.Write(body)
	}))
	defer origin.Close()

	srv := New(NewStore(64<<10, nil)) // the body is past the capacity
	defer srv.CloseIdleConnections()
	var logBuf bytes.Buffer
	logger := NewAccessLogger(&logBuf)
	srv.AccessLog = logger
	rec := &readFromRecorder{ResponseRecorder: httptest.NewRecorder()}
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, origin.URL+"/big.au", nil))
	if err := logger.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatalf("status %d, %d body bytes; want 200 and the origin's %d", rec.Code, rec.Body.Len(), size)
	}
	if rec.readFrom == 0 {
		t.Error("the relayed body never reached the writer's ReadFrom")
	}
	if f := strings.Fields(logBuf.String()); len(f) < 2 || f[len(f)-1] != fmt.Sprint(size) || f[len(f)-2] != "200" {
		t.Errorf("access log %q, want status 200 and %d bytes", logBuf.String(), size)
	}
}

// TestAccessLogClientGoneBeforeOrigin reloads a cached page from an
// origin that stalls, and closes the client's socket before the origin
// answers. The client was sent nothing, so the line says 502 0, as the
// request's trace does, and the simulator's validator drops it rather
// than count a request no client received.
func TestAccessLogClientGoneBeforeOrigin(t *testing.T) {
	forEachServer(t, func(t *testing.T, serve serveFunc) {
		var fetches atomic.Int64
		stall := make(chan struct{})
		ots := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if fetches.Add(1) == 1 {
				fmt.Fprint(w, "hello log")
				return
			}
			select {
			case <-r.Context().Done():
			case <-stall:
			}
		}))
		defer ots.Close()
		defer close(stall)

		srv := New(NewStore(1<<20, nil))
		defer srv.CloseIdleConnections()
		srv.Tracer = obs.NewTracer(obs.TracerOptions{})
		var logBuf bytes.Buffer
		logger := NewAccessLogger(&logBuf)
		srv.AccessLog = logger
		pts := serve(t, srv)

		target := ots.URL + "/page.html"
		proxyGet(t, pts.URL, target, nil)
		c, err := net.Dial("tcp", pts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: %s\r\nPragma: no-cache\r\n\r\n", target, ots.Listener.Addr())
		waitFor(t, "the origin to get the reload", func() bool { return fetches.Load() == 2 })
		c.Close()
		waitFor(t, "the second log line", func() bool { return logger.Lines() == 2 })
		if err := logger.Flush(); err != nil {
			t.Fatal(err)
		}

		tr, _, err := trace.ReadCLF(&logBuf, "proxylog")
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Requests) != 2 || tr.Requests[1].Status != http.StatusBadGateway || tr.Requests[1].Size != 0 {
			t.Fatalf("log %+v, want the reload as 502 0", tr.Requests)
		}
		var traced obs.RequestRecord
		for _, r := range srv.Tracer.Snapshot() {
			if r.ID == 2 {
				traced = r
			}
		}
		if traced.Status != http.StatusBadGateway || traced.Bytes != 0 {
			t.Errorf("reload traced as %d %d, want 502 0", traced.Status, traced.Bytes)
		}
		if _, vstats := trace.Validate(tr); vstats.Kept != 1 || vstats.DroppedStatus != 1 {
			t.Errorf("validation kept %d and dropped %d for status; want 1 and 1", vstats.Kept, vstats.DroppedStatus)
		}
	})
}

// TestAccessLogSkipsCutTransfer cuts a miss after its head: the
// transfer writes no log line, while its trace and its shadow event
// still go out.
func TestAccessLogSkipsCutTransfer(t *testing.T) {
	ots := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		w.Write(make([]byte, 10))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // cut after 10 of 100 bytes
	}))
	defer ots.Close()

	srv := New(NewStore(1<<20, nil))
	defer srv.CloseIdleConnections()
	srv.Tracer = obs.NewTracer(obs.TracerOptions{})
	fleet, err := NewShadowFleet(ShadowOptions{Policies: []string{"SIZE"}, Capacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv.Shadow = fleet
	logger := NewAccessLogger(nil)
	srv.AccessLog = logger

	func() {
		defer func() {
			if v := recover(); v != http.ErrAbortHandler {
				t.Fatalf("handler ended with %v, want the http.ErrAbortHandler panic", v)
			}
		}()
		srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, ots.URL+"/cut", nil))
	}()

	if n := logger.Lines(); n != 0 {
		t.Errorf("%d log lines for a cut transfer, want none: %q", n, logger.Recent())
	}
	recs := srv.Tracer.Snapshot()
	if len(recs) != 1 || recs[0].Verdict != "ERROR" || recs[0].Status != http.StatusOK || recs[0].Bytes != 10 || !recs[0].Error {
		t.Errorf("traces %+v, want one errored 200 of 10 bytes", recs)
	}
	if row := fleet.Report().Shadows[0]; row.Requests != 1 || row.Hits != 0 {
		t.Errorf("shadow saw %d requests, %d hits; want the one miss", row.Requests, row.Hits)
	}
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
