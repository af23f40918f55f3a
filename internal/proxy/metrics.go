package proxy

// The live serving path's observability glue: the same obs.Registry /
// obs.EventRing primitives the simulator feeds, resolved once at
// startup so the per-request cost is an atomic add per counter — the
// zero-overhead contract of core.CacheHooks extends to the proxy. With
// no Metrics attached every instrumentation site is one nil check.

import (
	"webcache/internal/core"
	"webcache/internal/obs"
	"webcache/internal/policy"
)

// Metrics is the proxy's counter bundle, resolved from a registry once
// at construction. Counter names mirror the Stats fields plus the
// origin-side and latency measures the in-memory Stats never had.
type Metrics struct {
	Requests    *obs.Counter
	Hits        *obs.Counter
	Revalidated *obs.Counter
	Misses      *obs.Counter
	SiblingHits *obs.Counter
	Uncacheable *obs.Counter
	Errors      *obs.Counter

	BytesServed  *obs.Counter
	BytesFromHit *obs.Counter

	// OriginFetches / OriginBytes count upstream document fetches and
	// the body bytes they transferred — the traffic a cache exists to
	// avoid, so their ratio against BytesServed is the live WHR.
	OriginFetches *obs.Counter
	OriginBytes   *obs.Counter

	// ICPQueries / ICPReplies count sibling protocol exchanges from the
	// client side (queries sent, replies received in time).
	ICPQueries *obs.Counter
	ICPReplies *obs.Counter

	// Latency is the per-request service time in nanoseconds, from
	// accept to the last body byte; the admin /metrics exposition
	// derives p50/p95/p99 from it.
	Latency *obs.Histogram
}

// NewMetrics resolves the proxy counter set from reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Requests:      reg.Counter("proxy.requests"),
		Hits:          reg.Counter("proxy.hits"),
		Revalidated:   reg.Counter("proxy.revalidated"),
		Misses:        reg.Counter("proxy.misses"),
		SiblingHits:   reg.Counter("proxy.sibling_hits"),
		Uncacheable:   reg.Counter("proxy.uncacheable"),
		Errors:        reg.Counter("proxy.errors"),
		BytesServed:   reg.Counter("proxy.bytes_served"),
		BytesFromHit:  reg.Counter("proxy.bytes_from_hit"),
		OriginFetches: reg.Counter("proxy.origin_fetches"),
		OriginBytes:   reg.Counter("proxy.origin_bytes"),
		ICPQueries:    reg.Counter("proxy.icp_queries"),
		ICPReplies:    reg.Counter("proxy.icp_replies"),
		Latency:       reg.Histogram("proxy.latency_ns"),
	}
}

// StoreHooks builds cache event hooks feeding reg's store.* counters
// and, when ring is non-nil, the event-level trace — the live
// counterpart of the simulator's hook wiring, so a store's eviction
// stream carries the same age/NREF detail as a replay's. Live entries
// are string-indexed, so trace events carry ID -1.
func StoreHooks(reg *obs.Registry, ring *obs.EventRing) core.CacheHooks {
	hits := reg.Counter("store.hits")
	misses := reg.Counter("store.misses")
	evictions := reg.Counter("store.evictions")
	evictedBytes := reg.Counter("store.evicted_bytes")
	inserts := reg.Counter("store.inserts")
	// Windowed hit/get counts give the deployed store a recent-window
	// hit rate alongside the lifetime ratio — the like-for-like side of
	// the shadow fleet's regret comparison. The derived rate is computed
	// at scrape time, in basis points.
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
			OnHit:   func(*policy.Entry) { hits.Inc(); winHits.Inc(); winGets.Inc() },
			OnMiss:  func(int64, int64) { misses.Inc(); winGets.Inc() },
			OnEvict: func(e *policy.Entry, now int64) { evictions.Inc(); evictedBytes.Add(e.Size) },
			OnAdd:   func(*policy.Entry) { inserts.Inc() },
		}
	}
	return core.CacheHooks{
		OnHit: func(e *policy.Entry) {
			hits.Inc()
			winHits.Inc()
			winGets.Inc()
			ring.Record(obs.Event{Kind: obs.EventHit, Time: e.ATime, ID: e.ID, Size: e.Size, NRef: e.NRef})
		},
		OnMiss: func(size, now int64) {
			misses.Inc()
			winGets.Inc()
			ring.Record(obs.Event{Kind: obs.EventMiss, Time: now, ID: -1, Size: size})
		},
		OnEvict: func(e *policy.Entry, now int64) {
			evictions.Inc()
			evictedBytes.Add(e.Size)
			ring.Record(obs.Event{Kind: obs.EventEvict, Time: now, ID: e.ID, Size: e.Size, Age: now - e.ETime, NRef: e.NRef})
		},
		OnAdd: func(e *policy.Entry) {
			inserts.Inc()
			ring.Record(obs.Event{Kind: obs.EventAdd, Time: e.ETime, ID: e.ID, Size: e.Size})
		},
	}
}
