package origin

// Client is the proxy's upstream HTTP/1.1 client (DESIGN.md §11, "Owned
// upstream connections"). net/http.Transport hands every request
// between the caller's goroutine and a connection's readLoop and
// writeLoop, and reads every body through its own buffer, so a body the
// proxy only relays could not go socket to socket through it. Client
// runs on the caller's goroutine, keeps its own keep-alive pool, and
// gives response bodies that read straight from the connection. Framing
// is the standard library's: requests go out through Request.Write or
// Request.WriteProxy, responses come in through http.ReadResponse.

import (
	"bufio"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"sync"
	"time"
)

// The idle pool's bounds: net/http's MaxIdleConns and IdleConnTimeout
// defaults, and the per-address cap the proxy's upstream transport had.
// A connection reads through readBufSize, so one read(2) takes the head
// and the body of a typical document; it writes only request heads.
const (
	maxIdlePerAddr = 64
	maxIdle        = 100
	idleExpiry     = 90 * time.Second
	readBufSize    = 32 << 10
	writeBufSize   = 4 << 10
)

// Client is a synchronous HTTP/1.1 client. RoundTrip takes a pooled
// connection or dials one, writes the request and reads the response
// head on the calling goroutine; the response body reads straight from
// the connection, which returns to the idle pool the moment the body
// ends cleanly. A Client is safe for concurrent use. Only http targets
// are fetched: any other scheme fails without dialing.
type Client struct {
	proxy     *url.URL // parent or sibling cache; nil fetches direct
	proxyAuth string   // Proxy-Authorization from proxy's userinfo
	addr      string   // when set, dialed for every request whatever its host

	mu    sync.Mutex
	idle  map[string][]*conn // by dial address, oldest first
	nidle int
}

// NewClient returns a client that sends every request in proxy form
// through the HTTP cache at proxyURL, a parent or a sibling, or straight
// to each target's host when proxyURL is nil. A userinfo in proxyURL is
// sent as Basic Proxy-Authorization, as http.ProxyURL does.
func NewClient(proxyURL *url.URL) *Client {
	c := &Client{proxy: proxyURL}
	if proxyURL != nil {
		c.addr = hostPort(proxyURL)
		if u := proxyURL.User; u != nil {
			pw, _ := u.Password()
			c.proxyAuth = "Basic " + base64.StdEncoding.EncodeToString([]byte(u.Username()+":"+pw))
		}
	}
	return c
}

// RewriteTransport returns a client that dials every outbound connection
// to a fixed address, so URLs with synthetic hosts
// (http://s5.world.example/...) resolve to the local origin server. The
// Host header still carries the synthetic name, which the origin uses to
// reconstruct the full URL.
func RewriteTransport(originAddr string) *Client {
	return &Client{addr: originAddr}
}

// hostPort is the dial address of an http URL.
func hostPort(u *url.URL) string {
	port := u.Port()
	if port == "" {
		port = "80"
	}
	return net.JoinHostPort(u.Hostname(), port)
}

// A BodyError is an error a response body's WriteTo met on the upstream
// side: the connection failed, or closed short of the declared length.
// WriteTo returns an error writing to its destination as it is.
type BodyError struct{ Err error }

func (e *BodyError) Error() string { return "origin: reading body: " + e.Err.Error() }
func (e *BodyError) Unwrap() error { return e.Err }

// conn is one upstream connection with its buffers.
type conn struct {
	nc     net.Conn
	addr   string
	br     *bufio.Reader
	bw     *bufio.Writer
	idleAt time.Time
	peek   peeker
}

// RoundTrip implements http.RoundTripper. A GET or HEAD without a body
// that fails on a reused connection before the first response byte is
// sent again once, on a fresh connection; no other request is retried.
func (c *Client) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" || c.proxy != nil && c.proxy.Scheme != "http" {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("origin: %s://%s: only http upstreams are supported", req.URL.Scheme, req.URL.Host)
	}
	addr := c.addr
	if addr == "" {
		addr = hostPort(req.URL)
	}
	out := req
	if c.proxyAuth != "" {
		r2 := *req
		r2.Header = req.Header.Clone()
		r2.Header.Set("Proxy-Authorization", c.proxyAuth)
		out = &r2
	}
	resp, retry, err := c.exchange(req, out, addr, false)
	if retry {
		resp, _, err = c.exchange(req, out, addr, true)
	}
	return resp, err
}

// exchange sends out over one connection, pooled unless fresh, and reads
// the response head. retry reports a failure that RoundTrip may repeat.
func (c *Client) exchange(req, out *http.Request, addr string, fresh bool) (resp *http.Response, retry bool, err error) {
	ctx := req.Context()
	trace := httptrace.ContextClientTrace(ctx)
	var cc *conn
	if !fresh {
		cc = c.takeIdle(addr)
	}
	reused := cc != nil
	if !reused {
		if cc, err = dial(ctx, addr, trace); err != nil {
			return nil, false, err
		}
	}
	// Cancelling the request poisons the connection's deadline, which
	// ends whatever read or write is blocked on it; a connection that
	// saw this is never pooled.
	stop := afterFunc(ctx, func() { cc.nc.SetDeadline(time.Unix(1, 0)) })
	fail := func(err error, beforeResponse bool) (*http.Response, bool, error) {
		stop()
		cc.nc.Close()
		idempotent := (req.Method == http.MethodGet || req.Method == http.MethodHead) &&
			(req.Body == nil || req.Body == http.NoBody)
		return nil, beforeResponse && reused && idempotent && ctx.Err() == nil, err
	}

	if c.proxy != nil {
		err = out.WriteProxy(cc.bw)
	} else {
		err = out.Write(cc.bw)
	}
	if err == nil {
		err = cc.bw.Flush()
	}
	if trace != nil && trace.WroteRequest != nil {
		trace.WroteRequest(httptrace.WroteRequestInfo{Err: err})
	}
	if err != nil {
		return fail(err, true)
	}
	if _, err := cc.br.Peek(1); err != nil {
		return fail(err, true)
	}
	if trace != nil && trace.GotFirstResponseByte != nil {
		trace.GotFirstResponseByte()
	}
	for {
		if resp, err = http.ReadResponse(cc.br, req); err != nil {
			return fail(err, false)
		}
		if resp.StatusCode == http.StatusSwitchingProtocols {
			return fail(errors.New("origin: unexpected 101 Switching Protocols"), false)
		}
		if resp.StatusCode >= 200 {
			break
		}
		// An interim 1xx response: the final one follows.
	}
	b := &body{c: c, cc: cc, ctx: ctx, rc: resp.Body, rest: -1, keep: !resp.Close, stop: stop}
	switch {
	case resp.Body == http.NoBody:
		b.rest = 0
	case resp.TransferEncoding == nil && resp.ContentLength >= 0:
		b.rest = resp.ContentLength
	}
	resp.Body = b
	return resp, false, nil
}

// afterFunc is context.AfterFunc through ctx's own AfterFunc method
// when it has one, as the proxy's request context does: that one needs
// no context or goroutine of its own to watch for the client leaving.
func afterFunc(ctx context.Context, f func()) (stop func() bool) {
	if a, ok := ctx.(interface{ AfterFunc(func()) func() bool }); ok {
		return a.AfterFunc(f)
	}
	return context.AfterFunc(ctx, f)
}

// dial opens a fresh connection to addr, reporting it to trace.
func dial(ctx context.Context, addr string, trace *httptrace.ClientTrace) (*conn, error) {
	if trace != nil && trace.ConnectStart != nil {
		trace.ConnectStart("tcp", addr)
	}
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if trace != nil && trace.ConnectDone != nil {
		trace.ConnectDone("tcp", addr, err)
	}
	if err != nil {
		return nil, err
	}
	cc := &conn{
		nc:   nc,
		addr: addr,
		br:   bufio.NewReaderSize(nc, readBufSize),
		bw:   bufio.NewWriterSize(nc, writeBufSize),
	}
	cc.peek.init(nc)
	return cc, nil
}

// takeIdle returns the most recently pooled connection to addr that is
// still idle, or nil. Connections past the idle expiry are closed on the
// way, and so is one the origin has closed or written to unasked.
func (c *Client) takeIdle(addr string) *conn {
	for {
		now := time.Now()
		var expired []*conn
		c.mu.Lock()
		list := c.idle[addr]
		for len(list) > 0 && now.Sub(list[0].idleAt) > idleExpiry {
			expired = append(expired, list[0])
			list[0] = nil
			list = list[1:]
		}
		var cc *conn
		if n := len(list); n > 0 {
			cc = list[n-1]
			list[n-1] = nil
			list = list[:n-1]
			c.nidle--
		}
		c.nidle -= len(expired)
		// An emptied list stays in the map, so the next put reuses it.
		if c.idle != nil {
			c.idle[addr] = list
		}
		c.mu.Unlock()
		for _, e := range expired {
			e.nc.Close()
		}
		if cc == nil {
			return nil
		}
		if unread, closed := cc.peek.probe(); !unread && !closed {
			return cc
		}
		cc.nc.Close()
	}
}

// put returns cc to the idle pool, or closes it when the pool is full.
func (c *Client) put(cc *conn) {
	cc.idleAt = time.Now()
	c.mu.Lock()
	if list := c.idle[cc.addr]; len(list) < maxIdlePerAddr && c.nidle < maxIdle {
		if c.idle == nil {
			c.idle = make(map[string][]*conn)
		}
		c.idle[cc.addr] = append(list, cc)
		c.nidle++
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cc.nc.Close()
}

// CloseIdleConnections closes every pooled connection. Connections in
// use are not touched; they are closed or pooled when their bodies end.
func (c *Client) CloseIdleConnections() {
	c.mu.Lock()
	idle := c.idle
	c.idle, c.nidle = nil, 0
	c.mu.Unlock()
	for _, list := range idle {
		for _, cc := range list {
			cc.nc.Close()
		}
	}
}

// body is a response body read straight from its connection. Its
// connection goes back to the pool only when the body ended at its
// framing (the declared length reached or the chunk terminator read),
// the response did not ask to close, nothing is buffered past the body
// and the request was not cancelled; it is closed in every other case.
type body struct {
	c    *Client
	cc   *conn // nil once the connection is pooled or closed
	ctx  context.Context
	rc   io.ReadCloser // the standard library's framing over cc.br
	rest int64         // bytes left of a declared length; -1 when chunked or close-delimited
	keep bool          // the response allows reuse
	stop func() bool   // detaches the request context's cancellation
	err  error         // what Read returns once cc is nil
}

func (b *body) Read(p []byte) (int, error) {
	if b.cc == nil {
		return 0, b.err
	}
	n, err := b.rc.Read(p)
	if b.rest > 0 {
		b.rest -= int64(n)
	}
	if err != nil {
		b.err = err
		b.release(err == io.EOF)
	}
	return n, err
}

// WriteTo writes the rest of the body to w. A body of declared length
// goes from the connection through io.Copy with w, after whatever the
// reader had buffered: when w reads from an io.Reader itself, as
// net/http's response writer on a TCP connection does, the bytes move
// socket to socket by splice(2) on Linux without entering user space.
// An upstream failure is returned as a *BodyError.
func (b *body) WriteTo(w io.Writer) (int64, error) {
	if b.cc == nil || b.rest <= 0 {
		return io.Copy(w, upstream{b})
	}
	cc := b.cc
	var n int64
	if k := int64(cc.br.Buffered()); k > 0 {
		buf, _ := cc.br.Peek(int(min(k, b.rest)))
		m, err := w.Write(buf)
		cc.br.Discard(m)
		n, b.rest = int64(m), b.rest-int64(m)
		if err != nil {
			b.err = err
			b.release(false)
			return n, err
		}
	}
	lr := io.LimitedReader{R: cc.nc, N: b.rest}
	m, err := io.Copy(w, &lr)
	n, b.rest = n+m, lr.N
	if b.rest == 0 && err == nil {
		b.err = io.EOF
		b.release(true)
		return n, nil
	}
	// Both sides of a splice report through one error, so ask the
	// upstream connection which side failed: one the origin closed or
	// reset reads as closed, and a cancelled request is upstream too.
	if _, closed := cc.peek.probe(); err == nil || closed || b.ctx.Err() != nil {
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		err = &BodyError{Err: err}
	}
	b.err = err
	b.release(false)
	return n, err
}

// upstream reads a body for WriteTo, marking its failures as upstream.
type upstream struct{ b *body }

func (u upstream) Read(p []byte) (int, error) {
	n, err := u.b.Read(p)
	if err != nil && err != io.EOF {
		err = &BodyError{Err: err}
	}
	return n, err
}

// Close ends the body. A body not read to its end closes its
// connection: draining it could take as long as the origin likes.
func (b *body) Close() error {
	if b.cc != nil {
		b.err = http.ErrBodyReadAfterClose
		b.release(b.rest == 0)
	}
	return nil
}

// release hands the connection back: to the pool when clean is true and
// the reuse rules hold, closed otherwise.
func (b *body) release(clean bool) {
	cc := b.cc
	b.cc = nil
	if b.stop() && clean && b.keep && cc.br.Buffered() == 0 {
		b.c.put(cc)
		return
	}
	cc.nc.Close()
}
