package proxy

// The live serving path's observability glue, on the obs.Registry
// primitives. Every count lives in the component that owns the fact
// (the server's own counters, the store's core.Stats and recent
// window) and the registry reads it at scrape time, so a number has one
// source and nothing mirrors it.

import (
	"sync/atomic"

	"webcache/internal/core"
	"webcache/internal/obs"
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
// read from its cache's core.Stats under the shared lock, and starts
// the store's recent-window hit rate: from here on every Get counts
// into it, and reg reads it through WindowCounts as store.window_hits,
// store.window_gets and store.window_hr_bp (basis points). Call it
// before serving.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	RegisterCacheStats(reg, "store", func() core.Stats {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.c.Stats()
	})
	reg.GaugeFunc("store.window_hits", func() int64 { hits, _ := s.WindowCounts(); return hits })
	reg.GaugeFunc("store.window_gets", func() int64 { _, gets := s.WindowCounts(); return gets })
	reg.GaugeFunc("store.window_hr_bp", func() int64 {
		hits, gets := s.WindowCounts()
		if gets == 0 {
			return 0
		}
		return bp(float64(hits) / float64(gets))
	})
	s.mu.Lock()
	s.window = obs.NewWindowedRate()
	s.mu.Unlock()
}

// WindowCounts returns the recent window's hits and gets as of the
// store's clock, both zero before RegisterMetrics.
func (s *Store) WindowCounts() (hits, gets int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.window == nil {
		return 0, 0
	}
	return s.window.WindowCounts(s.now().UnixNano())
}
