package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"webcache"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent names the layer whose span caused this one.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
	Req    int    `json:"req"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// current is the request the proxy handler is serving. The traced
	// run uses one connection, so at most one request is in flight and
	// store calls, which carry no request, belong to it.
	current atomic.Int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name, parent string, req int, start, end time.Time) {
	sp := span{Name: name, Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), Parent: parent, Req: req}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// reset drops the spans of the warm pass.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedHandler times the proxy's ServeHTTP.
func (r *recorder) tracedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := benchReq(req.Header)
		r.current.Store(int64(id))
		start := time.Now()
		h.ServeHTTP(w, req)
		r.add("proxy.handler", "client", id, start, time.Now())
	})
}

// timedStore times a store's Get and Put and forwards everything else.
// O is the store's object type, which the webcache facade does not name;
// newTimedStore infers it from the method values.
type timedStore[O any] struct {
	webcache.ProxyObjectStore
	get func(string) (O, bool)
	put func(string, O) bool
	rec *recorder

	gets, puts, rejected atomic.Int64
}

func newTimedStore[O any](s webcache.ProxyObjectStore, get func(string) (O, bool), put func(string, O) bool, rec *recorder) *timedStore[O] {
	return &timedStore[O]{ProxyObjectStore: s, get: get, put: put, rec: rec}
}

func (t *timedStore[O]) Get(url string) (O, bool) {
	start := time.Now()
	o, ok := t.get(url)
	t.rec.add("store.get", "proxy.handler", int(t.rec.current.Load()), start, time.Now())
	t.gets.Add(1)
	return o, ok
}

func (t *timedStore[O]) Put(url string, o O) bool {
	start := time.Now()
	ok := t.put(url, o)
	t.rec.add("store.put", "proxy.handler", int(t.rec.current.Load()), start, time.Now())
	t.puts.Add(1)
	if !ok {
		t.rejected.Add(1)
	}
	return ok
}

// timedTransport times an origin round trip from RoundTrip until the
// body is read to its end (or closed early).
type timedTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := benchReq(req.Header)
	start := time.Now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.rec.add("origin.roundtrip", "proxy.handler", id, start, time.Now())
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.rec.add("origin.roundtrip", "proxy.handler", id, start, time.Now())
	}}
	return resp, nil
}

// timedBody calls done once, at end of body or at Close, whichever is
// first. The proxy closes the body only after it has stored and served
// the object, so Close alone would charge that time to the origin.
type timedBody struct {
	io.ReadCloser
	done func()
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// tracedProxy is the in-process stand-in for the binary: the same
// proxy.Server over the single-mutex store, wrapped at four boundaries.
type tracedProxy struct {
	origin *stubOrigin
	srv    *http.Server
	addr   string
	counts func() (gets, puts, rejected int64)
}

func startTracedProxy(s *schedule, rec *recorder) (*tracedProxy, error) {
	origin, err := startOrigin(s.docs, rec)
	if err != nil {
		return nil, err
	}
	pol, err := webcache.NewPolicy("SIZE", s.dayStart)
	if err != nil {
		origin.close()
		return nil, err
	}
	store := webcache.NewProxyStore(s.capacity, pol)
	timed := newTimedStore(store, store.Get, store.Put, rec)
	px := webcache.NewProxy(timed)
	px.FreshFor = 24 * time.Hour
	parent, err := url.Parse(origin.url())
	if err != nil {
		origin.close()
		return nil, err
	}
	px.Transport = &timedTransport{inner: &http.Transport{Proxy: http.ProxyURL(parent)}, rec: rec}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		origin.close()
		return nil, err
	}
	t := &tracedProxy{
		origin: origin,
		srv:    &http.Server{Handler: rec.tracedHandler(px)},
		addr:   ln.Addr().String(),
		counts: func() (int64, int64, int64) { return timed.gets.Load(), timed.puts.Load(), timed.rejected.Load() },
	}
	go t.srv.Serve(ln) // returns when close() closes the listener
	return t, nil
}

// close waits for in-flight handlers, so every span of a finished
// request is recorded once it returns. It may be called twice.
func (t *tracedProxy) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if t.srv.Shutdown(ctx) != nil {
		t.srv.Close()
	}
	t.origin.close()
}

// budgetLines are the per-request self-time lines of the budget, by the
// span name each comes from. Together with budget.unattributed_us they
// sum to client.total_us_mean.
var budgetLines = []struct{ span, metric string }{
	{"client", "http.client_proxy_us"},
	{"proxy.handler", "proxy.server_self_us"},
	{"store.get", "proxy.store_get_us"},
	{"store.put", "proxy.store_put_us"},
	{"origin.roundtrip", "http.proxy_origin_us"},
	{"origin.service", "origin.service_us"},
}

// budget splits the mean client-observed request time into per-layer
// self times. A span's self time is its duration minus the part of it
// its child spans cover; what a child spends outside its parent's
// interval (a handler returning after the client already has the body)
// is in no self time's parent, so the lines need not sum to the total
// exactly and the remainder is its own line.
func budget(spans []span) map[string]float64 {
	byReq := map[int][]span{}
	for _, sp := range spans {
		byReq[sp.Req] = append(byReq[sp.Req], sp)
	}
	self := map[string]float64{} // span name → summed self time, ns
	var total, roundtrip float64
	n := 0
	for _, group := range byReq {
		counted := false
		for _, sp := range group {
			dur := float64(sp.End - sp.Start)
			switch sp.Name {
			case "client":
				total += dur
				counted = true
			case "origin.roundtrip":
				roundtrip += dur
			}
			self[sp.Name] += dur - covered(sp, group)
		}
		if counted {
			n++
		}
	}
	out := map[string]float64{}
	if n == 0 {
		return out
	}
	perReq := func(ns float64) float64 { return ns / float64(n) / 1e3 }
	out["client.total_us_mean"] = perReq(total)
	out["origin.roundtrip_us"] = perReq(roundtrip)
	rest := total
	for _, l := range budgetLines {
		out[l.metric] = perReq(self[l.span])
		rest -= self[l.span]
	}
	out["budget.unattributed_us"] = perReq(rest)
	if total > 0 {
		out["proxy.store_share"] = (self["store.get"] + self["store.put"]) / total
		out["proxy.server_share"] = self["proxy.handler"] / total
	}
	return out
}

// covered is the length of the union of parent's children, clipped to
// parent's interval.
func covered(parent span, group []span) float64 {
	type iv struct{ a, b int64 }
	var kids []iv
	for _, sp := range group {
		if sp.Parent != parent.Name {
			continue
		}
		a, b := max(sp.Start, parent.Start), min(sp.End, parent.End)
		if a < b {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	var sum, end int64
	end = parent.Start
	for _, k := range kids {
		if k.b <= end {
			continue
		}
		sum += k.b - max(k.a, end)
		end = k.b
	}
	return float64(sum)
}

// runTraced replays the schedule once through the decorated in-process
// proxy (after an unrecorded warm pass), writes the spans to spanFile
// and returns the budget and the client's view of the run.
func runTraced(ctx context.Context, s *schedule, spanFile string) (map[string]float64, tally, error) {
	rec := newRecorder()
	t, err := startTracedProxy(s, rec)
	if err != nil {
		return nil, tally{}, err
	}
	defer t.close()
	if _, _, err := replay(ctx, t.addr, s, 1, rec); err != nil {
		return nil, tally{}, err
	}
	rec.reset()
	g0, p0, r0 := t.counts()
	client, _, err := replay(ctx, t.addr, s, 1, rec)
	if err != nil {
		return nil, tally{}, err
	}
	g1, p1, r1 := t.counts()
	t.close()
	out := budget(rec.spans)
	n := float64(client.n)
	out["proxy.store_gets_per_req"] = float64(g1-g0) / n
	out["proxy.store_puts_per_req"] = float64(p1-p0) / n
	if p1 > p0 {
		out["proxy.store_put_rejected_ratio"] = float64(r1-r0) / float64(p1-p0)
	}
	out["client.total_us_p50"] = percentile(client.latenciesUsec, 50)
	out["client.total_us_p99"] = percentile(client.latenciesUsec, 99)
	if spanFile != "" {
		if err := rec.write(spanFile); err != nil {
			return nil, tally{}, err
		}
	}
	return out, client, nil
}
