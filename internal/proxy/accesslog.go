package proxy

// The paper's U, G and C workloads are CERN proxy access logs (§2.1).
// This file gives the live proxy the same faculty: it can emit a common
// log format line per request, so a deployment's own traffic can be fed
// straight back into the simulator and analyzer (cmd/websim -trace,
// cmd/analyze -trace), exactly the loop the original study ran.

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/obs"
)

// recentLines is how many emitted log lines the logger retains for the
// admin /accesslog sample.
const recentLines = 128

// AccessLogger wraps an http.Handler (normally the proxy Server) and
// writes one common-log-format line per completed request. It can
// sample (log every nth request) for high-volume deployments, and
// retains the most recent emitted lines for the admin endpoint.
type AccessLogger struct {
	next http.Handler
	seen atomic.Uint64 // requests observed, pre-sampling

	mu     sync.Mutex
	w      *bufio.Writer // nil: retain-only mode (no log sink)
	now    func() time.Time
	every  uint64            // log every nth request; 1 = all
	recent *obs.Ring[string] // emitted lines; its Total counts them all
}

// NewAccessLogger returns the wrapping handler; log lines go to w. A
// nil w keeps the logger in retain-only mode: lines are still formatted
// into the recent-lines buffer (the admin /accesslog view) but no
// stream is written.
func NewAccessLogger(next http.Handler, w io.Writer) *AccessLogger {
	l := &AccessLogger{next: next, now: time.Now, every: 1, recent: obs.NewRing[string](recentLines)}
	if w != nil {
		l.w = bufio.NewWriterSize(w, 32*1024)
	}
	return l
}

// SetClock overrides the logger's time source (tests).
func (l *AccessLogger) SetClock(now func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now = now
}

// SetSample makes the logger emit every nth request's line (n <= 1
// logs every request). Sampling is deterministic over the request
// arrival order — request 1, n+1, 2n+1, … are kept — so a sampled log
// scales back to totals by multiplying counts by n.
func (l *AccessLogger) SetSample(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 1 {
		n = 1
	}
	l.every = uint64(n)
}

// Lines returns the number of log lines emitted (post-sampling).
func (l *AccessLogger) Lines() uint64 { return l.recent.Total() }

// Recent returns the most recent emitted lines, oldest first.
func (l *AccessLogger) Recent() []string { return l.recent.Snapshot() }

// Handler serves the recent sampled lines as plain text — mounted on
// the admin mux at /accesslog.
func (l *AccessLogger) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, line := range l.Recent() {
			io.WriteString(w, line)
		}
	})
}

// Flush forces buffered log lines out.
func (l *AccessLogger) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.w == nil {
		return nil
	}
	return l.w.Flush()
}

// statusRecorder captures the response status and body size.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// ReadFrom hands src to the wrapped writer through io.Copy, which uses
// that writer's own ReadFrom when it has one, so a relayed body keeps
// net/http's socket-to-socket path under the logger.
func (r *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := io.Copy(r.ResponseWriter, src)
	r.bytes += n
	return n, err
}

// ServeHTTP implements http.Handler.
func (l *AccessLogger) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	seq := l.seen.Add(1)
	rec := &statusRecorder{ResponseWriter: w}
	l.next.ServeHTTP(rec, r)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}

	url := r.URL.String()
	if !r.URL.IsAbs() && r.Host != "" {
		url = "http://" + r.Host + r.URL.RequestURI()
	}
	client := r.RemoteAddr
	if i := strings.LastIndexByte(client, ':'); i > 0 {
		client = client[:i]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// The sampling decision uses the pre-serve sequence number, so
	// which requests are kept is a function of arrival order alone.
	if l.every > 1 && (seq-1)%l.every != 0 {
		return
	}
	// A request the tracer sampled carries its ID on the response
	// (proxy.ServeHTTP sets X-Trace-Id); append it as an extended
	// key=value field — the same extension mechanism as lastmod=, so
	// trace.ParseCLFLine still ingests the line — and /accesslog rows
	// cross-reference /requests entries.
	traceField := ""
	if id := rec.Header().Get("X-Trace-Id"); id != "" {
		traceField = " trace=" + id
	}
	line := fmt.Sprintf("%s - - [%s] \"%s %s HTTP/1.0\" %d %d%s\n",
		client,
		l.now().UTC().Format("02/Jan/2006:15:04:05 -0700"),
		r.Method, url, rec.status, rec.bytes, traceField)
	l.recent.Add(line)
	if l.w != nil {
		l.w.WriteString(line)
	}
}
