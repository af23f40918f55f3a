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

// StoreHooks builds cache event hooks feeding reg's windowed
// store.window_* counters and, when ring is non-nil, the event-level
// trace — the live counterpart of the simulator's hook wiring, so a
// store's eviction stream carries the same age/NREF detail as a
// replay's. Live entries are string-indexed, so trace events carry
// ID -1. The store's lifetime counts are its core.Stats
// (Store.RegisterMetrics).
func StoreHooks(reg *obs.Registry, ring *obs.EventRing) core.CacheHooks {
	// Windowed hit/get counts give the deployed store a recent-window
	// hit rate alongside the lifetime ratio. The derived rate is
	// computed at scrape time, in basis points.
	winHits := reg.Windowed("store.window_hits", 0, 0)
	winGets := reg.Windowed("store.window_gets", 0, 0)
	reg.GaugeFunc("store.window_hr_bp", func() int64 {
		gets := winGets.WindowTotal()
		if gets == 0 {
			return 0
		}
		return int64(float64(winHits.WindowTotal())/float64(gets)*10000 + 0.5)
	})
	if ring == nil {
		return core.CacheHooks{
			OnHit:  func(*policy.Entry) { winHits.Inc(); winGets.Inc() },
			OnMiss: func(int64, int64) { winGets.Inc() },
		}
	}
	return core.CacheHooks{
		OnHit: func(e *policy.Entry) {
			winHits.Inc()
			winGets.Inc()
			ring.Record(obs.Event{Kind: obs.EventHit, Time: e.ATime, ID: e.ID, Size: e.Size, NRef: e.NRef})
		},
		OnMiss: func(size, now int64) {
			winGets.Inc()
			ring.Record(obs.Event{Kind: obs.EventMiss, Time: now, ID: -1, Size: size})
		},
		OnEvict: func(e *policy.Entry, now int64) {
			ring.Record(obs.Event{Kind: obs.EventEvict, Time: now, ID: e.ID, Size: e.Size, Age: now - e.ETime, NRef: e.NRef})
		},
		OnAdd: func(e *policy.Entry) {
			ring.Record(obs.Event{Kind: obs.EventAdd, Time: e.ETime, ID: e.ID, Size: e.Size})
		},
	}
}
