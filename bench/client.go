package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// benchReqHeader carries the request's index through the proxy (which
// copies end-to-end headers upstream) to the origin in the traced run.
const benchReqHeader = "X-Bench-Req"

// benchReq reads the request index back; -1 when absent.
func benchReq(h http.Header) int {
	n, err := strconv.Atoi(h.Get(benchReqHeader))
	if err != nil {
		return -1
	}
	return n
}

// wire is one keep-alive client connection to the proxy. It speaks just
// enough HTTP/1.1 for a forward-proxy GET, so generator CPU stays small
// beside the proxy's on a two-core box and the number of connections in
// use is exactly the number of wires.
type wire struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  []byte
}

// reply is what the benchmark checks of a response.
type reply struct {
	status int
	length int64  // Content-Length; -1 when the header is missing
	read   int64  // body bytes read
	cache  string // X-Cache verdict; "" when the header is missing
}

// hit reports whether the proxy served the body from its cache.
func (r reply) hit() bool { return r.cache == "HIT" || r.cache == "REVALIDATED" }

// check returns why the reply is wrong for a document of the given size,
// or "" when it is right.
func (r reply) check(size int64) string {
	switch {
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d", r.status)
	case r.length != size:
		return fmt.Sprintf("Content-Length %d, want %d", r.length, size)
	case r.read != size:
		return fmt.Sprintf("read %d body bytes, want %d", r.read, size)
	case r.cache == "":
		return "no X-Cache header"
	}
	return ""
}

const requestTimeout = 30 * time.Second

// get sends one request and reads the whole response. id >= 0 adds the
// X-Bench-Req header. After an error the connection is dropped and the
// next get dials again.
func (w *wire) get(r *request, id int) (reply, error) {
	rp := reply{length: -1}
	if w.c == nil {
		c, err := net.DialTimeout("tcp", w.addr, requestTimeout)
		if err != nil {
			return rp, err
		}
		w.c, w.br = c, bufio.NewReaderSize(c, 64<<10)
	}
	w.out = append(w.out[:0], "GET "...)
	w.out = append(w.out, r.url...)
	w.out = append(w.out, " HTTP/1.1\r\nHost: "...)
	w.out = append(w.out, r.host...)
	if id >= 0 {
		w.out = append(w.out, "\r\n"+benchReqHeader+": "...)
		w.out = strconv.AppendInt(w.out, int64(id), 10)
	}
	w.out = append(w.out, "\r\n\r\n"...)
	err := w.c.SetDeadline(time.Now().Add(requestTimeout))
	if err == nil {
		_, err = w.c.Write(w.out)
	}
	if err == nil {
		err = w.readReply(&rp)
	}
	if err != nil {
		w.close()
	}
	return rp, err
}

func (w *wire) readReply(rp *reply) error {
	line, err := w.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	// "HTTP/1.1 200 OK"
	f := bytes.Fields(line)
	if len(f) < 2 || !bytes.HasPrefix(f[0], []byte("HTTP/1.")) {
		return fmt.Errorf("bad status line %q", line)
	}
	if rp.status, err = strconv.Atoi(string(f[1])); err != nil {
		return fmt.Errorf("bad status line %q", line)
	}
	chunked := false
	for {
		line, err = w.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, val, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if rp.length, err = strconv.ParseInt(string(val), 10, 64); err != nil {
				return fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(name, []byte("X-Cache")):
			rp.cache = string(val)
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = true
		}
	}
	if chunked || rp.length < 0 {
		// No length to frame the body by: the reply already fails
		// check, and the connection cannot be reused.
		return fmt.Errorf("response without Content-Length (status %d)", rp.status)
	}
	for rp.read < rp.length {
		n, err := w.br.Discard(int(min(rp.length-rp.read, 1<<20)))
		rp.read += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *wire) close() {
	if w.c != nil {
		w.c.Close()
		w.c, w.br = nil, nil
	}
}

// tally accumulates the outcome of a set of requests.
type tally struct {
	n, failed     int
	hits          int
	bytes, hitB   int64
	firstFailure  string
	latenciesUsec []float64 // successful requests only
}

func (t *tally) record(r *request, rp reply, err error, took time.Duration) {
	t.n++
	why := ""
	if err != nil {
		why = err.Error()
	} else {
		why = rp.check(r.size)
	}
	if why != "" {
		// A failed request has no latency: it counts as missing every
		// latency figure, not as a fast one.
		t.failed++
		if t.firstFailure == "" {
			t.firstFailure = fmt.Sprintf("GET %s: %s", r.url, why)
		}
		return
	}
	t.bytes += rp.read
	if rp.hit() {
		t.hits++
		t.hitB += rp.read
	}
	t.latenciesUsec = append(t.latenciesUsec, float64(took.Nanoseconds())/1e3)
}

func (t *tally) merge(o *tally) {
	t.n += o.n
	t.failed += o.failed
	t.hits += o.hits
	t.bytes += o.bytes
	t.hitB += o.hitB
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
	t.latenciesUsec = append(t.latenciesUsec, o.latenciesUsec...)
}

// conns is how many connections a closed-loop pass uses: one per
// processor, the load shape the noise figures in README.md were taken at.
func conns() int { return runtime.NumCPU() }

// replay sends the whole schedule once, in order, closed-loop on n
// connections: every worker takes the next unsent request when its reply
// has come. Clients of a forward proxy each wait for their reply, so a
// closed loop is the honest model. It returns what happened and the wall
// time of the pass. With rec non-nil each request carries its index and
// records a client span; the traced run does this on one connection.
func replay(ctx context.Context, addr string, s *schedule, n int, rec *recorder) (tally, time.Duration, error) {
	var next atomic.Int64
	tallies := make([]tally, n)
	var wg sync.WaitGroup
	start := time.Now()
	for k := range tallies {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			w := &wire{addr: addr}
			defer w.close()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(s.reqs) {
					return
				}
				r := &s.reqs[i]
				id := -1
				if rec != nil {
					id = i
				}
				t0 := time.Now()
				rp, err := w.get(r, id)
				t1 := time.Now()
				t.record(r, rp, err, t1.Sub(t0))
				if rec != nil {
					rec.add("client", "", i, t0, t1)
				}
			}
		}(&tallies[k])
	}
	wg.Wait()
	wall := time.Since(start)
	var all tally
	for k := range tallies {
		all.merge(&tallies[k])
	}
	return all, wall, ctx.Err()
}

// openLoop sends the schedule's requests at a fixed rate for the given
// duration on conns() connections, timing each from the instant it was
// due, so the wait a stall imposes on later requests is counted. late is
// how far behind its due time each request was actually sent.
func openLoop(ctx context.Context, addr string, s *schedule, rate float64, d time.Duration) (t tally, lateUsec []float64, err error) {
	total := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	type out struct {
		t    tally
		late []float64
	}
	outs := make([]out, conns())
	var wg sync.WaitGroup
	epoch := time.Now()
	for k := range outs {
		wg.Add(1)
		go func(o *out) {
			defer wg.Done()
			w := &wire{addr: addr}
			defer w.close()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				due := epoch.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				r := &s.reqs[i%len(s.reqs)]
				sent := time.Now()
				rp, err := w.get(r, -1)
				o.t.record(r, rp, err, time.Since(due))
				o.late = append(o.late, float64(sent.Sub(due).Nanoseconds())/1e3)
			}
		}(&outs[k])
	}
	wg.Wait()
	for k := range outs {
		t.merge(&outs[k].t)
		lateUsec = append(lateUsec, outs[k].late...)
	}
	return t, lateUsec, ctx.Err()
}
