package proxy

// The paper's U, G and C workloads are CERN proxy access logs (§2.1).
// This file gives the live proxy the same faculty: it can emit a common
// log format line per request, so a deployment's own traffic can be fed
// straight back into the simulator and analyzer (cmd/websim -trace,
// cmd/analyze -trace), exactly the loop the original study ran.

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"webcache/internal/obs"
)

// recentLines is how many emitted log lines the logger retains for the
// admin /accesslog sample.
const recentLines = 128

// AccessLogger writes one common-log-format line per completed
// request of the Server that holds it (Server.AccessLog), from the
// request's record. It can sample (log every nth request by arrival
// number) for high-volume deployments, and retains the most recent
// emitted lines for the admin endpoint.
type AccessLogger struct {
	mu     sync.Mutex
	w      *bufio.Writer // nil: retain-only mode (no log sink)
	now    func() time.Time
	every  uint64            // log every nth request; 1 = all
	line   []byte            // the line being formatted, reused
	recent *obs.Ring[string] // emitted lines; its Total counts them all
}

// NewAccessLogger returns a logger whose lines go to w; set it as a
// Server's AccessLog. A nil w keeps the logger in retain-only mode:
// lines are still formatted into the recent-lines buffer (the admin
// /accesslog view) but no stream is written.
func NewAccessLogger(w io.Writer) *AccessLogger {
	l := &AccessLogger{now: time.Now, every: 1, recent: obs.NewRing[string](recentLines)}
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
// scales back to totals by multiplying counts by n. The tracer samples
// by the same arrival number, so at equal rates the logged and the
// traced requests are the same ones.
func (l *AccessLogger) SetSample(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.every = uint64(max(n, 1))
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

// log writes rec's line, unless sampling skips it. A request the
// tracer sampled gets its trace ID as an extended trace= field — the
// same extension mechanism as lastmod=, so trace.ParseCLFLine still
// ingests the line — and /accesslog rows cross-reference /requests
// entries.
func (l *AccessLogger) log(r *http.Request, rec *record) {
	client := r.RemoteAddr
	if i := strings.LastIndexByte(client, ':'); i > 0 {
		client = client[:i]
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.every > 1 && (rec.seq-1)%l.every != 0 {
		return
	}
	b := append(l.line[:0], client...)
	b = append(b, " - - ["...)
	b = l.now().UTC().AppendFormat(b, "02/Jan/2006:15:04:05 -0700")
	b = append(b, "] \""...)
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, rec.URL...)
	b = append(b, " HTTP/1.0\" "...)
	b = strconv.AppendInt(b, int64(rec.Status), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, rec.Bytes, 10)
	if rec.rt != nil {
		b = append(b, " trace="...)
		b = append(b, obs.FormatTraceID(rec.rt.ID)...)
	}
	b = append(b, '\n')
	l.line = b
	l.recent.Add(string(b))
	if l.w != nil {
		l.w.Write(b)
	}
}
