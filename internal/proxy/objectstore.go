package proxy

import (
	"time"

	"webcache/internal/core"
	"webcache/internal/obs"
)

// ObjectStore is the contract the serving path programs against: the
// policy-driven object cache behind proxy.Server, the ICP responder
// and livebench's replay. Two implementations exist — the single-mutex
// Store, which cmd/proxy and livebench serve from because it evicts in
// one global order, and the N-way ShardedStore — and every consumer
// takes the interface so the two are interchangeable drop-ins.
//
// The miss path decides what to buffer before it reads a body, so the
// contract includes the admission question (Admits) beside the
// admission itself (Put); the two must give the same verdict on size.
//
// The determinism knobs (SetSeed, SetClock, SetHooks) are part of the
// interface because livebench's sim-vs-live byte-equivalence check
// needs them on whichever implementation it drives; call them before
// the first Put.
type ObjectStore interface {
	// Get returns the cached object for url, updating the removal
	// policy's recency/frequency bookkeeping on a hit.
	Get(url string) (*Object, bool)
	// Peek reports whether url is cached without touching policy state
	// or statistics (the ICP responder's read).
	Peek(url string) (*Object, bool)
	// Put stores obj under url, evicting victims as needed; it reports
	// whether the object was admitted.
	Put(url string, obj *Object) bool
	// Admits reports whether an object of size bytes under url would pass
	// Put's size test (the quota of the store, or of url's shard). The
	// miss path asks before it reads a body, so one that Put would
	// reject is never buffered; the answer and Put's must agree.
	Admits(url string, size int64) bool
	// Refresh re-stamps url's stored-at time after a 304 revalidation.
	Refresh(url string)
	// Remove drops url.
	Remove(url string)
	// Len returns the number of cached objects.
	Len() int
	// Stats returns a snapshot of store counters (aggregated across
	// shards for a sharded implementation).
	Stats() StoreStats

	// Reserve pre-sizes maps and policy structures for an expected
	// resident-document count; a pure performance hint, applied only
	// before the store holds objects.
	Reserve(docs int)
	// SetClock overrides the time source (tests, trace-time replays).
	SetClock(now func() time.Time)
	// SetSeed re-seeds the per-entry random tiebreak stream.
	SetSeed(seed uint64)
	// SetHooks attaches cache event hooks (hit/miss/evict/add).
	SetHooks(h core.CacheHooks)

	// SetTouchBuffer selects the hit path: slots > 0 attaches a lossy
	// per-shard touch ring and Get goes read-lock only; 0 (the
	// default) is the drain-synchronous deterministic mode where Get
	// updates the policy inline. Call before serving.
	SetTouchBuffer(slots int)
	// FlushTouches drains any buffered touches into the policy now and
	// returns how many were applied (0 in synchronous mode).
	FlushTouches() int
}

// TracedStore is the optional request-tracing extension of
// ObjectStore: Get/Put variants that record their phases (shard
// route, touch enqueue, eviction chain) into a sampled request's span
// timeline. The proxy type-asserts for it once at construction, so an
// ObjectStore that lacks it is simply served untraced — the same
// graceful-degradation shape as policy.Reserver. A nil rt must behave
// exactly like the untraced method.
type TracedStore interface {
	GetTraced(url string, rt *obs.ReqTrace) (*Object, bool)
	PutTraced(url string, obj *Object, rt *obs.ReqTrace) bool
}

// Both implementations must satisfy the serving-path contract, traced
// extension included.
var (
	_ ObjectStore = (*Store)(nil)
	_ ObjectStore = (*ShardedStore)(nil)
	_ TracedStore = (*Store)(nil)
	_ TracedStore = (*ShardedStore)(nil)
)
