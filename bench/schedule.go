package main

import (
	"fmt"
	"strings"

	"webcache"
)

// request is one scheduled proxy request and the body length the stub
// origin serves for its URL.
type request struct {
	url  string // absolute form, as a forward-proxy client sends it
	host string
	size int64
}

// schedule is the request sequence of one proxy workload. It is a pure
// function of (trace name, seed, scale): the proxy under test sees only
// the HTTP requests made from it.
type schedule struct {
	reqs     []request
	docs     map[string]int64 // URL → body length at the origin
	bytes    int64            // sum of reqs' sizes
	capacity int64            // fraction × MaxNeeded, the proxy's -capacity
	dayStart int64            // the trace's start, anchor of day-based keys
	simHR    float64          // the simulator's SIZE hit rate on this schedule at capacity
	simWHR   float64
}

// traceSeed is the generator seed of every trace: the one the repository's
// goldens and EXPERIMENTS.md are calibrated at.
const traceSeed = 42

// orderBlock is how many consecutive requests keep their order when a
// seed reorders a trace.
const orderBlock = 128

// seededTrace returns the paper workload with its requests reordered by
// seed: blocks of orderBlock consecutive requests are permuted, and the
// timestamps stay where they were, so the trace is still in time order.
// The document population, and so the bytes and the references per
// document, is the same for every seed; the order of the references, and
// so what a cache holds when each arrives, is the seed's. (Generating the
// trace itself from the seed moves the mean document size of these
// heavy-tailed workloads by ±20 % between seeds at any affordable scale,
// which no 10 % bound on a timing could survive.)
func seededTrace(name string, seed uint64, scale float64) (*webcache.Trace, error) {
	tr, _, err := webcache.GenerateWorkload(name, traceSeed, scale)
	if err != nil {
		return nil, err
	}
	reqs := tr.Requests
	blocks := (len(reqs) + orderBlock - 1) / orderBlock
	order := make([]int, blocks)
	for i := range order {
		order[i] = i
	}
	state := seed
	for i := blocks - 1; i > 0; i-- { // Fisher–Yates over splitmix64
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		j := int((z ^ z>>31) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	out := make([]webcache.Request, 0, len(reqs))
	for _, b := range order {
		out = append(out, reqs[b*orderBlock:min((b+1)*orderBlock, len(reqs))]...)
	}
	for i := range out {
		out[i].Time = reqs[i].Time
	}
	tr.Requests = out
	return tr, nil
}

// newSchedule generates the trace and derives the schedule. Like
// internal/origin, the stub origin serves each URL at the trace's final
// size for it, so a request's expected body length is that final size
// even where the trace logs a document that changed size mid-trace.
func newSchedule(traceName string, seed uint64, scale, fraction float64) (*schedule, error) {
	tr, err := seededTrace(traceName, seed, scale)
	if err != nil {
		return nil, err
	}
	if len(tr.Requests) < 8 {
		return nil, fmt.Errorf("trace %s at scale %g has only %d requests", traceName, scale, len(tr.Requests))
	}
	s := &schedule{
		docs:     make(map[string]int64, len(tr.Requests)/2),
		dayStart: tr.Start,
	}
	for i := range tr.Requests {
		s.docs[tr.Requests[i].URL] = tr.Requests[i].Size
	}
	// The trace is rewritten to the sizes the origin serves (before any
	// replay has cached a view of it), so the simulator's figure below is
	// comparable with the live proxy's.
	s.reqs = make([]request, len(tr.Requests))
	for i := range tr.Requests {
		r := &tr.Requests[i]
		r.Size = s.docs[r.URL]
		host, ok := hostOf(r.URL)
		if !ok {
			return nil, fmt.Errorf("trace %s: request %d has a non-absolute URL %q", traceName, i, r.URL)
		}
		s.reqs[i] = request{url: r.URL, host: host, size: r.Size}
		s.bytes += r.Size
	}
	base := webcache.MaxHitRates(tr, seed+1)
	s.capacity = int64(fraction * float64(base.MaxNeeded))
	if s.capacity < 1 {
		return nil, fmt.Errorf("trace %s: capacity %d from MaxNeeded %d", traceName, s.capacity, base.MaxNeeded)
	}
	pol, err := webcache.NewPolicy("SIZE", tr.Start)
	if err != nil {
		return nil, err
	}
	// ExcludeDynamic: the proxy never caches CGI or query URLs. Two
	// passes, the second one scored: a timed rep also runs on a cache
	// the warm pass filled.
	cache := webcache.NewCache(webcache.CacheConfig{Capacity: s.capacity, Policy: pol, Seed: seed + 2, ExcludeDynamic: true})
	for i := range tr.Requests {
		cache.Access(&tr.Requests[i])
	}
	warm := cache.Stats()
	for i := range tr.Requests {
		cache.Access(&tr.Requests[i])
	}
	st := cache.Stats()
	s.simHR = float64(st.Hits-warm.Hits) / float64(len(tr.Requests))
	s.simWHR = float64(st.BytesHit-warm.BytesHit) / float64(s.bytes)
	return s, nil
}

// hostOf returns the host of an absolute http URL.
func hostOf(url string) (string, bool) {
	rest, ok := strings.CutPrefix(url, "http://")
	if !ok || rest == "" {
		return "", false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}
