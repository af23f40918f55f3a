package proxy

// The live serving path's observability glue: the same obs.Registry /
// obs.EventRing primitives the simulator feeds. Every count lives in
// the component that owns the fact (the server's own counters, the
// store's core.Stats) and the registry reads it at scrape time, so a
// number has one source and nothing mirrors it.

import (
	"sync/atomic"

	"webcache/internal/core"
	"webcache/internal/obs"
	"webcache/internal/policy"
)

// RegisterMetrics publishes the server's counters on reg under proxy.*,
// each read at scrape time, and times every request into the
// proxy.latency_ns histogram (nanoseconds from accept to the last body
// byte; the admin /metrics exposition derives p50/p95/p99 from it).
// Call it before serving.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	for name, c := range map[string]*atomic.Int64{
		"proxy.requests":       &s.stats.requests,
		"proxy.hits":           &s.stats.hits,
		"proxy.revalidated":    &s.stats.revalidated,
		"proxy.misses":         &s.stats.misses,
		"proxy.sibling_hits":   &s.stats.siblingHits,
		"proxy.uncacheable":    &s.stats.uncacheable,
		"proxy.errors":         &s.stats.errors,
		"proxy.bytes_served":   &s.stats.bytesServed,
		"proxy.bytes_from_hit": &s.stats.bytesFromHit,
		"proxy.origin_fetches": &s.stats.originFetches,
		"proxy.origin_bytes":   &s.stats.originBytes,
		"proxy.icp_queries":    &s.ICP.queries,
		"proxy.icp_replies":    &s.ICP.replies,
	} {
		reg.GaugeFunc(name, c.Load)
	}
	s.latency = reg.Histogram("proxy.latency_ns")
}

// RegisterCacheStats publishes a cache's outcome counts on reg as
// prefix.hits, .misses, .evictions, .evicted_bytes and .inserts, each
// read from stats at scrape time.
func RegisterCacheStats(reg *obs.Registry, prefix string, stats func() core.Stats) {
	reg.GaugeFunc(prefix+".hits", func() int64 { return stats().Hits })
	reg.GaugeFunc(prefix+".misses", func() int64 { st := stats(); return st.Requests - st.Hits })
	reg.GaugeFunc(prefix+".evictions", func() int64 { return stats().Evictions })
	reg.GaugeFunc(prefix+".evicted_bytes", func() int64 { return stats().EvictedBytes })
	reg.GaugeFunc(prefix+".inserts", func() int64 { return stats().Inserted })
}

// RegisterMetrics publishes the store's counters on reg under store.*,
// read from its cache's core.Stats under the shared lock.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	RegisterCacheStats(reg, "store", func() core.Stats {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.c.Stats()
	})
}

// StoreHooks builds cache event hooks feeding the store's recent-window
// hit rate, which it returns and publishes on reg as store.window_hits,
// store.window_gets and store.window_hr_bp (basis points), each read at
// scrape time; when ring is non-nil the hooks also feed the event-level
// trace through obs.RingHooks, the simulator's hooks too, so a store's
// eviction stream carries the same age/NREF detail as a replay's. Live
// entries are string-indexed, so trace events carry ID -1. The store's
// lifetime counts are its core.Stats (Store.RegisterMetrics).
func StoreHooks(reg *obs.Registry, ring *obs.EventRing) (core.CacheHooks, *obs.WindowedRate) {
	window := obs.NewWindowedRate()
	reg.GaugeFunc("store.window_hits", func() int64 { hits, _ := window.WindowCounts(); return hits })
	reg.GaugeFunc("store.window_gets", func() int64 { _, gets := window.WindowCounts(); return gets })
	reg.GaugeFunc("store.window_hr_bp", func() int64 { return bp(window.Rate()) })
	// The ring's hooks (none without a ring) plus the window.
	h := obs.RingHooks(ring)
	recordHit, recordMiss := h.OnHit, h.OnMiss
	h.OnHit = func(e *policy.Entry) {
		window.Observe(true)
		if recordHit != nil {
			recordHit(e)
		}
	}
	h.OnMiss = func(size, now int64) {
		window.Observe(false)
		if recordMiss != nil {
			recordMiss(size, now)
		}
	}
	return h, window
}
