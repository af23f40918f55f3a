package proxy

// ConnServer is the traffic listener's HTTP/1.1 server (DESIGN.md §11,
// "Owned downstream connections"). net/http.Server starts a background
// read for every request to notice a client hanging up, clones and
// sorts every response header, and writes through a 4 KiB buffer, so a
// hit larger than that takes two write(2) calls. A hit needs none of
// it. ConnServer runs one goroutine per connection, reads each request
// with http.ReadRequest, calls the handler with its own ResponseWriter,
// and sends a response head and a declared-length body in one writev.
// The client watcher starts only for a handler that asks for the
// request context's Done channel or AfterFunc, as a miss does through
// origin.Client, and is still running watchDelay later.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// idleTimeout bounds the wait for each request head, so it covers a
	// keep-alive connection left idle and a head that never completes
	// alike: Squid's client_idle_pconn_timeout default.
	idleTimeout = 2 * time.Minute
	// maxHeadBytes is net/http's limit on a request head.
	maxHeadBytes = http.DefaultMaxHeaderBytes + 4<<10
	// maxDrainBytes is how much of a body the handler left unread is
	// discarded to keep the connection; a longer rest closes it.
	maxDrainBytes = 256 << 10
	// maxPending is the longest body of undeclared length held back to go
	// out with a Content-Length when the handler returns, as net/http's
	// response buffer does.
	maxPending = 2 << 10
	// maxHeld is the longest response, head and declared body, held back
	// until the handler returns, as net/http's 4 KiB connection buffer
	// holds it: a client that has it knows its handler has finished.
	maxHeld = 4 << 10
	// lingerTime bounds how long a connection closed on a client that
	// may still be sending is read, so the kernel does not reset it
	// before the client has read the reply (net/http's
	// rstAvoidanceDelay).
	lingerTime = 500 * time.Millisecond
	// watchDelay is how long a request that asks to hear of its client
	// hanging up runs before the watcher starts: a miss that ends sooner
	// costs no goroutine and no read, and a hang-up is noticed at most
	// this much later (DESIGN.md §11).
	watchDelay = 10 * time.Millisecond
)

// The connection states Shutdown sees.
const (
	connIdle int32 = iota // waiting for a request's first byte
	connActive
	connClosed
)

// aLongTimeAgo is a read deadline that ends a blocked read at once.
var aLongTimeAgo = time.Unix(1, 0)

// ConnServer serves HTTP/1.1 on the listeners given to Serve, one
// goroutine per connection, calling the handler for every request.
type ConnServer struct {
	handler     http.Handler
	idleTimeout time.Duration // idleTimeout; tests shorten it

	date atomic.Pointer[dateValue]

	closing atomic.Bool // set by Shutdown under mu

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	drained   chan struct{} // made by Shutdown, closed when conns empties
}

// NewConnServer returns a server that calls h for every request.
func NewConnServer(h http.Handler) *ConnServer {
	return &ConnServer{
		handler:     h,
		idleTimeout: idleTimeout,
		listeners:   make(map[net.Listener]struct{}),
		conns:       make(map[*conn]struct{}),
	}
}

// Serve accepts connections on ln until Shutdown, which makes it return
// http.ErrServerClosed, or until Accept fails for good.
func (s *ConnServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		return http.ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	var delay time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			// Back off on a temporary failure such as running out of file
			// descriptors, as net/http's Serve does.
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		if c := s.track(nc); c != nil {
			go c.serve()
		}
	}
}

// Shutdown stops accepting, closes idle connections and waits for the
// rest to finish their requests, or for ctx to end.
func (s *ConnServer) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing.Store(true)
	for ln := range s.listeners {
		ln.Close()
	}
	if s.drained == nil {
		s.drained = make(chan struct{})
		if len(s.conns) == 0 {
			close(s.drained)
		}
	}
	for c := range s.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			c.nc.Close()
		}
	}
	drained := s.drained
	s.mu.Unlock()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *ConnServer) track(nc net.Conn) *conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		nc.Close()
		return nil
	}
	c := &conn{srv: s, nc: nc, remote: nc.RemoteAddr().String(), header: make(http.Header)}
	c.r.nc = nc
	c.br = bufio.NewReaderSize(&c.r, 4<<10)
	c.body.c = c
	c.w.c = c
	s.conns[c] = struct{}{}
	return c
}

func (s *ConnServer) untrack(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
	if s.drained != nil && len(s.conns) == 0 {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
}

type dateValue struct {
	sec int64
	b   []byte
}

// dateLine returns the Date value for now, formatted once per second.
func (s *ConnServer) dateLine(now time.Time) []byte {
	sec := now.Unix()
	if d := s.date.Load(); d != nil && d.sec == sec {
		return d.b
	}
	d := &dateValue{sec: sec, b: now.UTC().AppendFormat(nil, http.TimeFormat)}
	s.date.Store(d)
	return d.b
}

// conn is one client connection. Everything a request needs is kept
// here and reused by the next one.
type conn struct {
	srv    *ConnServer
	nc     net.Conn
	remote string
	state  atomic.Int32
	r      connReader
	br     *bufio.Reader

	header http.Header // the response header, cleared per request
	w      response
	body   reqBody
	ctx    *reqContext // the request being served

	head []byte // the response head being formatted
	pend []byte // body of undeclared length held back
	bufs net.Buffers
	vec  [3][]byte

	wants10KeepAlive, wantsClose bool
	expect100                    bool        // the client waits for 100 Continue before its body
	canContinue                  atomic.Bool // a 100 Continue may still be sent
	contMu                       sync.Mutex

	wmu        sync.Mutex // guards the watcher fields below and reqContext's
	bodyDone   bool       // the request body has been read to its end
	watchTimer *time.Timer
	watching   bool
	aborted    bool
	watchWG    sync.WaitGroup
}

// connReader is what a connection's bufio.Reader reads: a byte the
// client watcher read early, then the socket, within a budget while a
// request head is read.
type connReader struct {
	nc     net.Conn
	remain int64
	saved  bool
	b      [1]byte
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	if r.saved {
		r.saved = false
		p[0] = r.b[0]
		r.remain--
		return 1, nil
	}
	n, err := r.nc.Read(p)
	r.remain -= int64(n)
	return n, err
}

func (c *conn) serve() {
	linger := false
	defer func() {
		if v := recover(); v != nil && v != http.ErrAbortHandler {
			log.Printf("proxy: panic serving %s: %v\n%s", c.remote, v, debug.Stack())
		}
		if c.ctx != nil {
			c.ctx.end()
		}
		if linger {
			c.lingerClose()
		}
		c.nc.Close()
		c.srv.untrack(c)
	}()
	var lastMethod string
	for {
		c.nc.SetReadDeadline(time.Now().Add(c.srv.idleTimeout))
		c.r.remain = maxHeadBytes
		if lastMethod == http.MethodPost {
			// Tolerate the CRLF old clients send after a POST body
			// (RFC 7230 §3.5), as net/http does.
			peek, _ := c.br.Peek(4)
			c.br.Discard(len(peek) - len(strings.TrimLeft(string(peek), "\r\n")))
		}
		if _, err := c.br.Peek(1); err != nil || !c.state.CompareAndSwap(connIdle, connActive) {
			return
		}
		req, err := http.ReadRequest(c.br)
		if err != nil {
			linger = c.replyReadError(err)
			return
		}
		c.r.remain = math.MaxInt64
		lastMethod = req.Method
		if code, text := checkRequest(req); code != 0 {
			c.replyError(code, text)
			return
		}
		var keep bool
		if keep, linger = c.serveRequest(req); !keep {
			return
		}
		c.state.Store(connIdle)
		if c.srv.closing.Load() {
			return
		}
	}
}

// checkRequest applies net/http's checks beyond parsing: the protocol
// major version, and a Host header where HTTP/1.1 requires one. It
// returns the status and text to refuse the request with, or 0.
func checkRequest(req *http.Request) (int, string) {
	switch {
	case req.ProtoMajor != 1:
		return http.StatusHTTPVersionNotSupported, "unsupported protocol version"
	case req.URL.Host != "":
		// An absolute target's authority is the host; http.ReadRequest
		// drops a Host line beside it (RFC 9112 §3.2.2).
		return 0, ""
	case req.Host == "" && req.ProtoAtLeast(1, 1) && req.Method != http.MethodConnect:
		return http.StatusBadRequest, "missing required Host header"
	case !allBytesIn(req.Host, "!$%&'()*+,-.:;=[]_~"):
		return http.StatusBadRequest, "malformed Host header" // net/http's test
	}
	return 0, ""
}

// allBytesIn reports whether every byte of s is a letter, a digit or
// one of punct.
func allBytesIn(s, punct string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte(punct, c) >= 0) {
			return false
		}
	}
	return true
}

// replyReadError answers a request http.ReadRequest could not read, as
// net/http does: nothing for a connection that ended or timed out, 431
// for a head past maxHeadBytes, 501 for an unknown transfer coding and
// 400 for anything else. It reports whether the client may still be
// sending.
func (c *conn) replyReadError(err error) (linger bool) {
	var ne net.Error
	var oe *net.OpError
	switch {
	case c.r.remain <= 0:
		c.replyError(http.StatusRequestHeaderFieldsTooLarge, "")
		return true
	case err == io.EOF, errors.As(err, &ne) && ne.Timeout(), errors.As(err, &oe) && oe.Op == "read":
	case strings.HasPrefix(err.Error(), "unsupported transfer encoding"):
		c.replyError(http.StatusNotImplemented, "")
	default:
		c.replyError(http.StatusBadRequest, "")
	}
	return false
}

// replyError sends the plain-text error reply net/http sends for a
// request it will not serve; the connection is closed after it.
func (c *conn) replyError(code int, text string) {
	status := strconv.Itoa(code) + " " + http.StatusText(code)
	if text != "" {
		status += ": " + text
	}
	io.WriteString(c.nc, "HTTP/1.1 "+status+
		"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"+status)
}

// lingerClose half-closes the connection and reads what the client
// still sends for a while, so the reply is not lost to a reset.
func (c *conn) lingerClose() {
	if tc, ok := c.nc.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	c.nc.SetReadDeadline(time.Now().Add(lingerTime))
	io.Copy(io.Discard, c.nc)
}

// serveRequest runs the handler for req and completes its response. It
// reports whether the connection may carry another request, and whether
// the client may still be sending when it is closed.
func (c *conn) serveRequest(req *http.Request) (keep, linger bool) {
	conns := req.Header["Connection"]
	c.wants10KeepAlive = req.ProtoMajor == 1 && req.ProtoMinor == 0 && listsToken(conns[:min(len(conns), 1)], "keep-alive")
	c.wantsClose = req.Close || listsToken(conns[:min(len(conns), 1)], "close")
	expect := req.Header["Expect"]
	expectContinue := len(expect) > 0 && listsToken(expect[:1], "100-continue")
	if len(expect) > 0 && !expectContinue {
		c.replyError(http.StatusExpectationFailed, "")
		return false, false
	}
	c.expect100 = expectContinue && req.ProtoAtLeast(1, 1) && req.ContentLength != 0
	c.canContinue.Store(c.expect100)

	req.RemoteAddr = c.remote
	x := &reqContext{c: c}
	*req = *req.WithContext(x)
	c.wmu.Lock()
	c.ctx, c.bodyDone = x, req.Body == http.NoBody
	c.wmu.Unlock()
	if req.Body != http.NoBody {
		// The head's deadline does not bound the body.
		c.nc.SetReadDeadline(time.Time{})
		c.body.rc, c.body.closed = req.Body, false
		c.body.eof.Store(false)
		req.Body = &c.body
	}
	clear(c.header)
	c.w = response{c: c, req: req, length: -1}

	c.srv.handler.ServeHTTP(&c.w, req)
	x.end()
	w := &c.w
	w.finish()
	if w.closeAfter || w.err != nil ||
		w.length >= 0 && w.written != w.length && req.Method != http.MethodHead && bodyAllowed(w.status) {
		return false, false
	}
	if req.Body != http.NoBody && !c.body.eof.Load() {
		// Drain what the handler left of the body, within a bound.
		c.nc.SetReadDeadline(time.Now().Add(c.srv.idleTimeout))
		if n, err := io.CopyN(io.Discard, c.body.rc, maxDrainBytes); err != io.EOF {
			return false, n == maxDrainBytes
		}
	}
	return true, false
}

// reqBody is a request's body as its handler reads it. The first read
// answers an Expect: 100-continue, and the one that reaches the end
// lets a waiting client watcher start.
type reqBody struct {
	c      *conn
	rc     io.ReadCloser
	eof    atomic.Bool
	closed bool
}

func (b *reqBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	c := b.c
	if c.canContinue.Load() {
		c.contMu.Lock()
		if c.canContinue.Load() {
			io.WriteString(c.nc, "HTTP/1.1 100 Continue\r\n\r\n")
			c.canContinue.Store(false)
		}
		c.contMu.Unlock()
	}
	n, err := b.rc.Read(p)
	if err == io.EOF && !b.eof.Swap(true) {
		c.wmu.Lock()
		c.bodyDone = true
		c.wmu.Unlock()
	}
	return n, err
}

// Close stops the handler's reads. It does not close the stdlib body,
// which would read the rest of it however long; the connection drains
// a bounded amount after the handler instead.
func (b *reqBody) Close() error {
	b.closed = true
	return nil
}

// reqContext is a request's context. Nothing watches the connection
// for a client that hangs up until someone asks, by calling Done or
// AfterFunc, and watchDelay has passed since; a request that ends
// sooner costs a timer reset. Then a one-byte read starts, as net/http
// starts one for every request, once the request body has been read to
// its end. The context is cancelled when the client hangs up or the
// handler returns. Its fields are guarded by the connection's wmu.
type reqContext struct {
	c           *conn
	inner       context.Context // nil until Done is called
	cancelInner context.CancelFunc
	after       func() // the first AfterFunc's f, until it runs or is stopped
	armed       bool   // Done or AfterFunc has been called
	canceled    bool
}

func (x *reqContext) Deadline() (time.Time, bool) { return time.Time{}, false }
func (x *reqContext) Value(any) any               { return nil }
func (x *reqContext) Done() <-chan struct{}       { return x.watched().Done() }

func (x *reqContext) Err() error {
	x.c.wmu.Lock()
	defer x.c.wmu.Unlock()
	if x.canceled {
		return context.Canceled
	}
	return nil
}

// AfterFunc registers f as context.AfterFunc does; origin.Client calls
// it in context.AfterFunc's place. The first f, when it comes before
// Done, is kept here, so a request that stops it in time needs neither
// a context nor a goroutine; later ones go on the watched context. f
// runs on a goroutine of its own, as context.AfterFunc runs it.
func (x *reqContext) AfterFunc(f func()) (stop func() bool) {
	c := x.c
	c.wmu.Lock()
	if x.armed || x.canceled {
		c.wmu.Unlock()
		return context.AfterFunc(x.watched(), f)
	}
	x.after = f
	x.armLocked()
	c.wmu.Unlock()
	return func() bool {
		c.wmu.Lock()
		defer c.wmu.Unlock()
		stopped := x.after != nil
		x.after = nil
		return stopped
	}
}

// watched returns the context behind Done, made and the watch armed on
// the first call.
func (x *reqContext) watched() context.Context {
	c := x.c
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if x.inner == nil {
		x.inner, x.cancelInner = context.WithCancel(context.Background())
		if x.canceled {
			x.cancelInner()
		}
		x.armLocked()
	}
	return x.inner
}

// armLocked sets the connection's timer to start the watcher watchDelay
// after the request first asks for it.
func (x *reqContext) armLocked() {
	c := x.c
	if x.armed || x.canceled {
		return
	}
	x.armed = true
	if c.watchTimer == nil {
		c.watchTimer = time.AfterFunc(watchDelay, c.watchDue)
	} else {
		c.watchTimer.Reset(watchDelay)
	}
}

// watchDue starts the watcher for the running request that armed the
// timer, once its body has been read to its end, looking again every
// watchDelay until then. A timer that fired as one request ended may
// start it early for the next one, if that one armed it too: harmless.
func (c *conn) watchDue() {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	switch x := c.ctx; {
	case x == nil || !x.armed || x.canceled || c.watching:
	case c.bodyDone:
		c.startWatchLocked(x)
	default:
		c.watchTimer.Reset(watchDelay)
	}
}

// startWatchLocked reads one byte off the connection on a goroutine of
// its own. A byte is the start of a pipelined request, kept for the
// loop; an error other than end's deadline is the client gone, which
// cancels the request.
func (c *conn) startWatchLocked(x *reqContext) {
	c.watching = true
	c.nc.SetReadDeadline(time.Time{})
	c.watchWG.Add(1)
	go func() {
		defer c.watchWG.Done()
		n, err := c.nc.Read(c.r.b[:])
		c.wmu.Lock()
		defer c.wmu.Unlock()
		if n == 1 {
			c.r.saved = true
		} else if err != nil && !c.aborted {
			x.cancelLocked()
		}
	}()
}

// cancelLocked cancels the context once: Done's channel closes and the
// f AfterFunc kept runs, unless it was stopped.
func (x *reqContext) cancelLocked() {
	if x.canceled {
		return
	}
	x.canceled = true
	if x.cancelInner != nil {
		x.cancelInner()
	}
	if x.after != nil {
		go x.after()
		x.after = nil
	}
}

// end stops the timer and the watcher, if one runs, waits for it and
// cancels the context.
func (x *reqContext) end() {
	c := x.c
	c.wmu.Lock()
	c.ctx = nil
	if x.armed {
		c.watchTimer.Stop()
	}
	watching := c.watching
	c.aborted = true
	c.wmu.Unlock()
	if watching {
		c.nc.SetReadDeadline(aLongTimeAgo)
		c.watchWG.Wait()
	}
	c.wmu.Lock()
	c.watching, c.aborted = false, false
	x.cancelLocked()
	c.wmu.Unlock()
}

// response is a ConnServer's http.ResponseWriter. WriteHeader formats
// the head; it goes out with the first body bytes, in one writev for a
// declared Content-Length. A body of undeclared length is held back up
// to maxPending bytes, then chunked to an HTTP/1.1 client and ended by
// closing the connection to an HTTP/1.0 one.
type response struct {
	c          *conn
	req        *http.Request
	status     int   // 0 until WriteHeader
	length     int64 // declared Content-Length; -1 when none
	written    int64 // body bytes the handler wrote
	framed     bool  // the head is complete
	sent       bool  // the head is on the wire
	chunked    bool
	closeAfter bool
	err        error // the first failed write; the connection ends
}

func (w *response) Header() http.Header { return w.c.header }

// bodyAllowed reports whether a response with this status has a body.
func bodyAllowed(status int) bool {
	return status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified
}

func (w *response) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if w.status != 0 {
		return
	}
	c := w.c
	if code < 200 && code != http.StatusSwitchingProtocols {
		c.head = w.appendHead(c.head[:0], code)
		c.nc.Write(append(c.head, "\r\n"...))
		return
	}
	w.status = code
	if c.canContinue.Load() {
		c.contMu.Lock()
		c.canContinue.Store(false)
		c.contMu.Unlock()
	}
	if cl := c.header["Content-Length"]; len(cl) > 0 {
		if n, err := strconv.ParseInt(cl[0], 10, 64); err == nil && n >= 0 {
			w.length = n
		} else {
			delete(c.header, "Content-Length")
		}
	}
	c.head = w.appendHead(c.head[:0], code)
}

// appendHead appends the status line and the handler's header fields,
// with a Date unless the handler set one, leaving out the fields the
// server frames the body with and those a response without a body must
// not carry.
func (w *response) appendHead(b []byte, code int) []byte {
	if w.req.ProtoAtLeast(1, 1) {
		b = append(b, "HTTP/1.1 "...)
	} else {
		b = append(b, "HTTP/1.0 "...)
	}
	b = strconv.AppendInt(b, int64(code), 10)
	if text := http.StatusText(code); text != "" {
		b = append(append(b, ' '), text...)
	} else {
		b = append(b, " status code "...)
		b = strconv.AppendInt(b, int64(code), 10)
	}
	b = append(b, "\r\n"...)
	for k, vs := range w.c.header {
		switch k {
		case "Connection", "Transfer-Encoding", "Trailer":
			continue
		case "Content-Length":
			if !bodyAllowed(code) {
				continue
			}
		case "Content-Type":
			if code == http.StatusNotModified {
				continue
			}
		}
		if k == "" || !allBytesIn(k, "-!#$%&'*+.^_`|~") { // not an RFC 9110 token
			continue
		}
		for _, v := range vs {
			if strings.ContainsAny(v, "\r\n") {
				v = newlineToSpace.Replace(v) // as net/http: no header splitting
			}
			b = append(append(append(append(b, k...), ": "...), v...), "\r\n"...)
		}
	}
	if _, ok := w.c.header["Date"]; !ok {
		b = append(append(append(b, "Date: "...), w.c.srv.dateLine(time.Now())...), "\r\n"...)
	}
	return b
}

var newlineToSpace = strings.NewReplacer("\r", " ", "\n", " ")

// frame ends the head: the body's framing, the connection's fate and
// the blank line, under net/http's rules. done is true once the
// handler has returned, when a body held back gets its length.
func (w *response) frame(done bool) {
	c, req := w.c, w.req
	isHead := req.Method == http.MethodHead
	b := c.head
	if w.length < 0 && done && bodyAllowed(w.status) && (w.written > 0 || !isHead) && w.written <= maxPending {
		w.length = w.written
		b = strconv.AppendInt(append(b, "Content-Length: "...), w.length, 10)
		b = append(b, "\r\n"...)
	}
	if c.wants10KeepAlive && (isHead || w.length >= 0 || !bodyAllowed(w.status)) {
		b = append(b, "Connection: keep-alive\r\n"...)
	} else if !req.ProtoAtLeast(1, 1) || c.wantsClose {
		w.closeAfter = true
	}
	if listsToken(c.header["Connection"], "close") || c.srv.closing.Load() {
		w.closeAfter = true
	}
	if c.expect100 && !c.body.eof.Load() {
		w.closeAfter = true // a client waiting for 100 Continue may not send its body
	}
	if !isHead && bodyAllowed(w.status) && w.length < 0 {
		if req.ProtoAtLeast(1, 1) {
			w.chunked = true
			b = append(b, "Transfer-Encoding: chunked\r\n"...)
		} else {
			w.closeAfter = true
		}
	}
	if w.closeAfter && req.ProtoAtLeast(1, 1) {
		b = append(b, "Connection: close\r\n"...)
	}
	c.head = append(b, "\r\n"...)
	w.framed = true
}

// writev writes pre, p and post in one writev; the head counts as
// sent from here on.
func (w *response) writev(pre, p, post []byte) error {
	if w.err != nil {
		return w.err
	}
	c := w.c
	w.sent = true
	c.bufs = append(c.vec[:0], pre, p, post)
	if _, err := c.bufs.WriteTo(c.nc); err != nil {
		w.err = err
	}
	return w.err
}

// unsent returns the head, framed, when it has not gone out yet, and
// otherwise the emptied head buffer, for a chunk's size line.
func (w *response) unsent() []byte {
	if w.sent {
		return w.c.head[:0]
	}
	if !w.framed {
		w.frame(false)
	}
	return w.c.head
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if len(p) == 0 {
		return 0, nil // an empty chunk would end the body
	}
	if !bodyAllowed(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	if w.length >= 0 && w.written+int64(len(p)) > w.length {
		return 0, http.ErrContentLength
	}
	if w.err != nil {
		return 0, w.err
	}
	w.written += int64(len(p))
	c := w.c
	switch {
	case w.req.Method == http.MethodHead:
		// The head goes out when the handler returns; the body never.
		return len(p), nil
	case w.length >= 0:
		if head := w.unsent(); !w.sent && len(head)+len(p) <= maxHeld {
			c.head = append(head, p...)
			return len(p), nil
		}
		if err := w.writev(w.unsent(), p, nil); err != nil {
			return 0, err
		}
		return len(p), nil
	case !w.sent && w.written <= maxPending:
		c.pend = append(c.pend, p...)
		return len(p), nil
	}
	pre, post := w.unsent(), []byte(nil)
	if w.chunked {
		pre = strconv.AppendInt(pre, int64(len(c.pend)+len(p)), 16)
		pre = append(pre, "\r\n"...)
		post = crlf
	}
	c.head = append(pre, c.pend...)
	c.pend = c.pend[:0]
	if err := w.writev(c.head, p, post); err != nil {
		return 0, err
	}
	return len(p), nil
}

var crlf = []byte("\r\n")

// finish completes the response once the handler has returned: the
// head, if it has not gone out, with what was held back, or the last
// chunk.
func (w *response) finish() {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	c := w.c
	switch {
	case !w.sent:
		if !w.framed {
			w.frame(true)
		}
		c.head = append(c.head, c.pend...)
		c.pend = c.pend[:0]
	case w.chunked:
		c.head = append(c.head[:0], "0\r\n\r\n"...)
	default:
		return
	}
	w.writev(c.head, nil, nil)
}

// ReadFrom sends the head and hands a body of declared length that
// comes as a LimitedReader over a TCP connection, as origin.Client's
// bodies do, to the client connection's own ReadFrom, which on Linux
// moves the bytes by splice(2). Anything else is copied through Write
// with a pooled buffer.
func (w *response) ReadFrom(src io.Reader) (int64, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	tc, ok := w.c.nc.(*net.TCPConn)
	lr, isLR := src.(*io.LimitedReader)
	if isLR {
		_, isLR = lr.R.(*net.TCPConn)
	}
	if !ok || !isLR || w.length < 0 || lr.N > w.length-w.written ||
		!bodyAllowed(w.status) || w.req.Method == http.MethodHead {
		bp := relayBufPool.Get().(*[]byte)
		defer relayBufPool.Put(bp)
		return io.CopyBuffer(writerOnly{w}, src, *bp)
	}
	if err := w.writev(w.unsent(), nil, nil); err != nil {
		return 0, err
	}
	n, err := tc.ReadFrom(lr)
	w.written += n
	if err != nil {
		w.err = err
	}
	return n, err
}

// writerOnly hides a writer's ReadFrom from io.Copy.
type writerOnly struct{ io.Writer }
