package proxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/obs"
	"webcache/internal/origin"
)

// Stats counts proxy-level outcomes.
type Stats struct {
	Requests     int64
	Hits         int64 // served from cache without contacting the origin
	Revalidated  int64 // served from cache after a 304
	Misses       int64 // fetched from origin (or parent)
	SiblingHits  int64 // misses served through an ICP sibling
	Uncacheable  int64 // passed through without cache consideration
	Errors       int64
	BytesServed  int64
	BytesFromHit int64
}

// Server is an HTTP/1.0-style caching proxy. It handles proxy-form GET
// requests (absolute URI in the request line), caches static documents
// under the store's removal policy, revalidates stale entries with
// If-Modified-Since, and can chain to a parent proxy — the two-level
// arrangement of Experiment 3.
type Server struct {
	store ObjectStore
	// FreshFor is how long a cached object is served without
	// revalidation. 1995-era HTTP has no Cache-Control; a fixed
	// freshness window plus Last-Modified revalidation matches CERN
	// httpd behaviour.
	FreshFor time.Duration
	// MaxObjectBytes bounds what the proxy will cache, and with it the
	// memory one miss can hold. A larger body is relayed to the client
	// whole and not kept: socket to socket when the upstream client's
	// body can write itself, else through a fixed copy buffer.
	MaxObjectBytes int64
	// Transport performs origin fetches; origin.NewClient with a parent
	// URL chains to a parent cache. Nil fetches straight from each
	// origin through the server's own origin.Client.
	Transport http.RoundTripper
	// Siblings are cooperating caches queried over ICP before a
	// cacheable miss goes to the origin (the Harvest arrangement of the
	// paper's reference [8]); a sibling answering ICP_HIT serves the
	// fetch instead.
	Siblings []Sibling
	// ICP issues the sibling queries.
	ICP ICPClient
	// Shadow, when non-nil, receives every successful GET outcome (URL,
	// body size, deployed hit-or-miss) for the ghost-cache fleet. The
	// per-request cost is one non-blocking enqueue; nil costs one branch.
	Shadow *ShadowFleet
	// Tracer, when non-nil, samples requests into per-phase span
	// timelines (parse, store get, origin dial/TTFB/body,
	// admission, eviction chain) and keeps the tail worth inspecting —
	// the /requests admin endpoint. Nil — the default — costs one
	// branch per request; unsampled requests cost one atomic add.
	Tracer *obs.Tracer

	// traced is the store when it is a *Store, asserted once in New, so
	// a sampled admission can record its eviction chain (PutTraced).
	traced *Store

	// latency, set by RegisterMetrics, times every request; nil — the
	// default — costs one branch per request.
	latency *obs.Histogram

	// direct is the upstream client a nil Transport stands for.
	direct *origin.Client
	// siblingTransports maps a sibling's proxy URL to its client.
	siblingTransports sync.Map

	stats struct {
		requests, hits, revalidated, misses atomic.Int64
		uncacheable, errors                 atomic.Int64
		bytesServed, bytesFromHit           atomic.Int64
		siblingHits                         atomic.Int64
		// originFetches / originBytes count upstream document fetches
		// and their body bytes: the traffic a cache exists to avoid.
		originFetches, originBytes atomic.Int64
	}
}

// New returns a caching proxy over the given store.
func New(store ObjectStore) *Server {
	s := &Server{
		store:          store,
		FreshFor:       5 * time.Minute,
		MaxObjectBytes: 8 << 20,
		direct:         origin.NewClient(nil),
	}
	s.traced, _ = store.(*Store)
	return s
}

// Store exposes the underlying object store.
func (s *Server) Store() ObjectStore { return s.store }

// Stats returns a snapshot of proxy counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:     s.stats.requests.Load(),
		Hits:         s.stats.hits.Load(),
		Revalidated:  s.stats.revalidated.Load(),
		Misses:       s.stats.misses.Load(),
		SiblingHits:  s.stats.siblingHits.Load(),
		Uncacheable:  s.stats.uncacheable.Load(),
		Errors:       s.stats.errors.Load(),
		BytesServed:  s.stats.bytesServed.Load(),
		BytesFromHit: s.stats.bytesFromHit.Load(),
	}
}

func (s *Server) transport() http.RoundTripper {
	if s.Transport != nil {
		return s.Transport
	}
	return s.direct
}

// CloseIdleConnections closes the idle upstream connections of the
// direct client, of every sibling's client and of Transport, when it
// has such a method.
func (s *Server) CloseIdleConnections() {
	s.direct.CloseIdleConnections()
	s.siblingTransports.Range(func(_, c any) bool {
		c.(*origin.Client).CloseIdleConnections()
		return true
	})
	if c, ok := s.Transport.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// siblingTransport returns the client for fetches through the sibling
// whose HTTP listener is proxyURL, built on first use and then reused so
// sibling fetches keep their connections; nil when the URL does not parse.
func (s *Server) siblingTransport(proxyURL string) http.RoundTripper {
	if c, ok := s.siblingTransports.Load(proxyURL); ok {
		return c.(*origin.Client)
	}
	u, err := url.Parse(proxyURL)
	if err != nil {
		return nil
	}
	c, _ := s.siblingTransports.LoadOrStore(proxyURL, origin.NewClient(u))
	return c.(*origin.Client)
}

// Cacheable reports whether a request/URL is cacheable under the
// paper-era rules: GET only, no dynamically generated documents (CGI
// paths or query strings), no authenticated content, and no client
// opt-out.
func Cacheable(r *http.Request) bool {
	if r.Method != http.MethodGet {
		return false
	}
	if r.URL.RawQuery != "" || strings.Contains(r.URL.Path, "cgi-bin") {
		return false
	}
	if r.Header.Get("Authorization") != "" {
		return false
	}
	return true
}

// storeGet is the store lookup, inside a store.get span when this
// request is sampled.
func (s *Server) storeGet(key string, rt *obs.ReqTrace) (*Object, bool) {
	if rt == nil {
		return s.store.Get(key)
	}
	sp := rt.BeginSpan(obs.PhaseStoreGet)
	obj, ok := s.store.Get(key)
	rt.EndSpan(sp)
	return obj, ok
}

// storePut is the store admission; when this request is sampled and the
// store is a *Store, it records the eviction chain. The admit span
// (opened by the caller) wraps it, so the eviction spans nest inside.
func (s *Server) storePut(key string, obj *Object, rt *obs.ReqTrace) bool {
	if rt == nil || s.traced == nil {
		return s.store.Put(key, obj)
	}
	return s.traced.PutTraced(key, obj, rt)
}

// ServeHTTP implements the proxy.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	if h := s.latency; h != nil {
		start := time.Now()
		defer func() { h.Observe(time.Since(start).Nanoseconds()) }()
	}
	rt := s.Tracer.Begin() // nil when untraced or unsampled; every rt method is nil-safe
	if rt != nil {
		// The ID goes out on the response (and into the access log), so
		// a slow request a client reports can be found in /requests.
		w.Header().Set("X-Trace-Id", obs.FormatTraceID(rt.ID))
		defer s.Tracer.End(rt)
	}

	parse := rt.BeginSpan(obs.PhaseParse)
	target := r.URL
	if !target.IsAbs() {
		// Accept origin-form requests too (reverse-proxy style) by
		// reconstructing the absolute URL from the Host header.
		if r.Host == "" {
			rt.EndSpan(parse)
			s.noteError(rt)
			rt.SetOutcome("ERROR", http.StatusBadRequest, 0)
			http.Error(w, "proxy: request URL is not absolute", http.StatusBadRequest)
			return
		}
		abs := *r.URL
		abs.Scheme = "http"
		abs.Host = r.Host
		target = &abs
	}
	// The absolute URL, formatted once: the cache key, the upstream
	// request's target and the name the trace and the shadows see.
	key := target.String()

	if !Cacheable(r) {
		s.stats.uncacheable.Add(1)
		rt.SetURL(key)
		rt.EndSpan(parse)
		s.passThrough(w, r, key, rt)
		return
	}

	noCache := strings.EqualFold(r.Header.Get("Pragma"), "no-cache")
	rt.SetURL(key)
	rt.EndSpan(parse)

	// A client's reload skips the lookup: it is no store request, so it
	// neither counts nor re-ranks the resident copy it replaces.
	if noCache {
		s.fetchAndServe(w, r, key, rt)
		return
	}
	if obj, ok := s.storeGet(key, rt); ok {
		age := time.Since(obj.StoredAt)
		if age <= s.FreshFor {
			s.serveObject(w, obj, xCacheHit, rt)
			s.stats.hits.Add(1)
			s.stats.bytesFromHit.Add(int64(len(obj.Body)))
			if f := s.Shadow; f != nil {
				f.Observe(key, int64(len(obj.Body)), true)
			}
			return
		}
		reval := rt.BeginSpan(obs.PhaseRevalidate)
		ok := s.revalidate(r.Context(), key, obj)
		rt.EndSpan(reval)
		if ok {
			s.serveObject(w, obj, xCacheRevalidated, rt)
			s.stats.revalidated.Add(1)
			s.stats.bytesFromHit.Add(int64(len(obj.Body)))
			if f := s.Shadow; f != nil {
				f.Observe(key, int64(len(obj.Body)), true)
			}
			return
		}
		// Revalidation says the document changed (or failed); fall
		// through to a fresh fetch, replacing the stale copy.
	}

	s.fetchAndServe(w, r, key, rt)
}

// revalidate sends a conditional GET; true means the cached copy is
// still current (the origin answered 304).
func (s *Server) revalidate(ctx context.Context, key string, obj *Object) bool {
	if obj.LastModified.IsZero() {
		return false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, key, nil)
	if err != nil {
		return false
	}
	req.Header.Set("If-Modified-Since", obj.LastModified.UTC().Format(http.TimeFormat))
	resp, err := s.transport().RoundTrip(req)
	if err != nil {
		return false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotModified {
		s.store.Refresh(key)
		return true
	}
	return false
}

// fetchAndServe fetches key from the origin (or parent proxy),
// streams it to the client as it arrives, and caches it when eligible
// (DESIGN.md §11).
func (s *Server) fetchAndServe(w http.ResponseWriter, r *http.Request, key string, rt *obs.ReqTrace) {
	s.stats.misses.Add(1)
	// The fetch lives on the client's context: a client that goes away
	// cancels it, and its connection to the origin is closed.
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, key, nil)
	if err != nil {
		s.countError(w, rt, fmt.Sprintf("proxy: building origin request: %v", err))
		return
	}
	copyEndToEnd(req.Header, r.Header)
	// The stored body must be identity, since it is served to every later
	// client whatever it accepts; a forwarded Accept-Encoding would make
	// the body this client's encoding instead.
	req.Header.Del("Accept-Encoding")
	// A sampled miss watches the transport's own lifecycle callbacks:
	// origin.dial and origin.ttfb spans come from httptrace, so the
	// timeline attributes origin latency to the wire, not RoundTrip.
	req = origin.TraceRequest(req, rt)

	// Ask ICP siblings before going to the origin; a hit redirects the
	// fetch through the sibling's HTTP listener.
	tr := s.transport()
	if sib := s.ICP.QuerySiblings(s.Siblings, key); sib != nil {
		if st := s.siblingTransport(sib.Proxy); st != nil {
			tr = st
			s.stats.siblingHits.Add(1)
		}
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		if r.Context().Err() != nil {
			rt.SetOutcome("ERROR", http.StatusBadGateway, 0) // the client left: no one to answer
			return
		}
		s.countError(w, rt, fmt.Sprintf("proxy: origin fetch failed: %v", err))
		return
	}
	defer resp.Body.Close()
	s.stats.originFetches.Add(1)

	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "" {
		// Serve non-200 responses uncached, and so an encoded body: the
		// cache keeps identity bodies only.
		n := s.relay(w, resp)
		s.stats.originBytes.Add(n)
		rt.SetOutcome("MISS", resp.StatusCode, n)
		return
	}
	contentType, lastMod := headerSubset(resp.Header)
	length := resp.ContentLength // -1: chunked or EOF-delimited origin
	fits := length <= s.MaxObjectBytes && (length < 0 || s.store.Admits(length))
	hdr := makeEntityHeader(contentType, lastMod, length)
	hdr.set(w.Header(), xCacheMiss)
	serve := rt.BeginSpan(obs.PhaseServe)
	w.WriteHeader(http.StatusOK)
	bodySpan := rt.BeginSpan(obs.PhaseBody)
	var body []byte // what Put will get; nil when the object is not kept
	var sent int64
	var rerr, werr error
	switch {
	case !fits:
		if wt, ok := resp.Body.(io.WriterTo); ok {
			sent, rerr, werr = writeBody(w, wt)
		} else {
			_, sent, rerr, werr = relayBody(w, resp.Body, -1)
		}
	case length < 0:
		body, sent, rerr, werr = relayBody(w, resp.Body, s.MaxObjectBytes)
	default:
		body = make([]byte, length)
		sent, rerr, werr = teeBody(w, resp.Body, body)
	}
	rt.EndSpanArg(bodySpan, sent)
	rt.EndSpan(serve)
	s.stats.bytesServed.Add(sent)
	s.stats.originBytes.Add(sent)
	if rerr != nil || werr != nil {
		// Too late for a 502: drop the connection, so the client reads a
		// cut transfer and not a complete document. Nothing is cached. A
		// client that left cancelled the fetch, which is not the origin's
		// failure.
		if rerr != nil && r.Context().Err() == nil {
			s.noteError(rt)
		}
		rt.SetOutcome("ERROR", http.StatusOK, sent)
		panic(http.ErrAbortHandler)
	}
	rt.SetOutcome("MISS", http.StatusOK, sent)
	if body != nil {
		admit := rt.BeginSpan(obs.PhaseAdmit)
		// A body of declared length is served with the same headers on
		// every hit; Put formats those of a body whose length the origin
		// did not declare.
		obj := &Object{Body: body, ContentType: contentType, LastModified: lastMod, StoredAt: time.Now(), header: hdr}
		arg := int64(0)
		if s.storePut(key, obj, rt) {
			arg = 1
		}
		rt.EndSpanArg(admit, arg)
	}
	if f := s.Shadow; f != nil {
		f.Observe(key, sent, false)
	}
}

// teeBody reads an origin body of declared, admissible length straight
// into body, its final buffer, handing each chunk to the client as it
// arrives. It returns the bytes the client took and the origin-side or
// client-side error that stopped the transfer.
func teeBody(w io.Writer, src io.Reader, body []byte) (sent int64, rerr, werr error) {
	for sent < int64(len(body)) {
		m, err := src.Read(body[sent:])
		k, cerr := w.Write(body[sent : sent+int64(m)])
		sent += int64(k)
		if cerr != nil {
			return sent, nil, cerr
		}
		if err == io.EOF && sent < int64(len(body)) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil && err != io.EOF {
			return sent, err, nil
		}
	}
	return sent, nil, nil
}

// writeBody relays a body through its own WriteTo, which for an
// origin.Client body of declared length moves the bytes socket to socket
// when w is net/http's response on a TCP connection. An
// *origin.BodyError is the origin's failure; any other error is w's.
func writeBody(w io.Writer, src io.WriterTo) (sent int64, rerr, werr error) {
	sent, err := src.WriteTo(w)
	var be *origin.BodyError
	if errors.As(err, &be) {
		return sent, err, nil
	}
	return sent, nil, err
}

// relayBufPool holds the copy buffers of relayBody, so a miss that is
// not kept costs one pooled buffer however large its body.
var relayBufPool = sync.Pool{New: func() any {
	b := make([]byte, relayBufSize)
	return &b
}}

const relayBufSize = 64 << 10

// relayBody copies an origin body to the client through a pooled buffer.
// With keepMax >= 0 (a body of unknown length) it also accumulates the
// body, up to keepMax bytes; a longer one is relayed on without being
// kept. The returned body is nil when nothing was kept.
func relayBody(w io.Writer, src io.Reader, keepMax int64) (body []byte, sent int64, rerr, werr error) {
	bp := relayBufPool.Get().(*[]byte)
	defer relayBufPool.Put(bp)
	if keepMax >= 0 {
		body = []byte{}
	}
	for {
		m, err := src.Read(*bp)
		chunk := (*bp)[:m]
		if body != nil {
			if int64(len(body)+m) > keepMax {
				body = nil
			} else {
				body = append(body, chunk...)
			}
		}
		k, cerr := w.Write(chunk)
		sent += int64(k)
		if cerr != nil {
			return nil, sent, nil, cerr
		}
		if err == io.EOF {
			return body, sent, nil, nil
		}
		if err != nil {
			return nil, sent, err, nil
		}
	}
}

// noteError counts one failed request and flags its trace.
func (s *Server) noteError(rt *obs.ReqTrace) {
	s.stats.errors.Add(1)
	rt.MarkError()
}

// countError records an error outcome and answers 502.
func (s *Server) countError(w http.ResponseWriter, rt *obs.ReqTrace, msg string) {
	s.noteError(rt)
	rt.SetOutcome("ERROR", http.StatusBadGateway, 0)
	http.Error(w, msg, http.StatusBadGateway)
}

// entityHeader holds the formatted values of the entity headers a
// document is served with; an empty value is a header it does not send.
type entityHeader [3]string

// entityHeaderNames are the header names of an entityHeader's values.
var entityHeaderNames = [3]string{"Content-Type", "Last-Modified", "Content-Length"}

// makeEntityHeader formats a document's entity headers. A negative
// length (unknown until the origin's body ends) sends no Content-Length.
func makeEntityHeader(contentType string, lastMod time.Time, length int64) entityHeader {
	e := entityHeader{0: contentType}
	if !lastMod.IsZero() {
		e[1] = lastMod.UTC().Format(http.TimeFormat)
	}
	if length >= 0 {
		e[2] = strconv.FormatInt(length, 10)
	}
	return e
}

// The X-Cache values, shared by every response (len == cap).
var (
	xCacheMiss        = []string{"MISS"}
	xCacheHit         = []string{"HIT"}
	xCacheRevalidated = []string{"REVALIDATED"}
)

// set assigns the entity headers and the X-Cache verdict to h. The
// values are slices of e itself, shared by every response that e's
// object serves, each with len == cap: an Add elsewhere copies instead
// of appending into e.
func (e *entityHeader) set(h http.Header, xCache []string) {
	for i, name := range entityHeaderNames {
		if e[i] != "" {
			h[name] = e[i : i+1 : i+1]
		}
	}
	h["X-Cache"] = xCache
}

// serveObject writes a cached object to the client, with the header
// values formatted when it was stored.
func (s *Server) serveObject(w http.ResponseWriter, obj *Object, xCache []string, rt *obs.ReqTrace) {
	obj.header.set(w.Header(), xCache)
	serve := rt.BeginSpan(obs.PhaseServe)
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(obj.Body)
	rt.EndSpan(serve)
	rt.SetOutcome(xCache[0], http.StatusOK, int64(n))
	s.stats.bytesServed.Add(int64(n))
}

// relay streams an origin response to the client without caching and
// returns the body bytes written.
func (s *Server) relay(w http.ResponseWriter, resp *http.Response) int64 {
	h := w.Header()
	copyEndToEnd(h, resp.Header)
	h.Set("X-Cache", "MISS")
	w.WriteHeader(resp.StatusCode)
	n, _ := io.Copy(w, resp.Body)
	s.stats.bytesServed.Add(n)
	return n
}

// passThrough forwards an uncacheable request to target verbatim.
func (s *Server) passThrough(w http.ResponseWriter, r *http.Request, target string, rt *obs.ReqTrace) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, target, r.Body)
	if err != nil {
		s.countError(w, rt, fmt.Sprintf("proxy: building pass-through request: %v", err))
		return
	}
	copyEndToEnd(req.Header, r.Header)
	req = origin.TraceRequest(req, rt)
	resp, err := s.transport().RoundTrip(req)
	if err != nil {
		s.countError(w, rt, fmt.Sprintf("proxy: pass-through fetch failed: %v", err))
		return
	}
	defer resp.Body.Close()
	n := s.relay(w, resp)
	rt.SetOutcome("UNCACHEABLE", resp.StatusCode, n)
	// Successful GETs the cache declined (CGI, query strings, client
	// opt-out) still reach the shadows: the simulator counts dynamic
	// requests as misses, so the fleet must see them too.
	if f := s.Shadow; f != nil && r.Method == http.MethodGet && resp.StatusCode == http.StatusOK {
		f.Observe(target, n, false)
	}
}

// copyEndToEnd copies the end-to-end headers of a request or response
// into dst. It drops the hop-by-hop ones, which describe a single
// connection: a fixed list and every header that src's Connection field
// names.
func copyEndToEnd(dst, src http.Header) {
	conn := src["Connection"]
	for k, vs := range src {
		switch k = http.CanonicalHeaderKey(k); k {
		case "Connection", "Proxy-Connection", "Keep-Alive", "Te", "Trailer",
			"Transfer-Encoding", "Upgrade", "Proxy-Authorization", "Proxy-Authenticate":
			continue
		}
		if listsToken(conn, k) {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// listsToken reports whether the comma-separated field values list
// name, compared without regard to case.
func listsToken(values []string, name string) bool {
	for _, v := range values {
		for v != "" {
			var tok string
			tok, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(strings.TrimSpace(tok), name) {
				return true
			}
		}
	}
	return false
}
