package proxy

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"webcache/internal/trace"
)

func TestAccessLoggerEmitsCLF(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "hello log")
	}))
	defer origin.Close()

	srv := New(NewStore(1<<20, nil))
	var logBuf bytes.Buffer
	logger := NewAccessLogger(srv, &logBuf)
	fixed := time.Unix(811346712, 0)
	logger.SetClock(func() time.Time { return fixed })
	pts := httptest.NewServer(logger)
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
	logger := NewAccessLogger(srv, &logBuf)
	pts := httptest.NewServer(logger)
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
// through the logger: the body must reach the wrapped writer's ReadFrom
// (the splice path on a real connection), and the log line must still
// carry its exact byte count.
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
	logger := NewAccessLogger(srv, &logBuf)
	rec := &readFromRecorder{ResponseRecorder: httptest.NewRecorder()}
	logger.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, origin.URL+"/big.au", nil))
	if err := logger.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatalf("status %d, %d body bytes; want 200 and the origin's %d", rec.Code, rec.Body.Len(), size)
	}
	if rec.readFrom == 0 {
		t.Error("the relayed body never reached the wrapped writer's ReadFrom")
	}
	if f := strings.Fields(logBuf.String()); len(f) < 2 || f[len(f)-1] != fmt.Sprint(size) || f[len(f)-2] != "200" {
		t.Errorf("access log %q, want status 200 and %d bytes", logBuf.String(), size)
	}
}
