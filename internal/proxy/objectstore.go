package proxy

import (
	"time"

	"webcache/internal/core"
)

// ObjectStore is the contract the serving path programs against: the
// policy-driven object cache behind proxy.Server, the ICP responder
// and livebench's replay. cmd/proxy and livebench build the
// single-mutex Store, which evicts in one global order; the N-way
// ShardedStore is built only by its own tests. A store's byte capacity
// is fixed when it is built.
//
// A caller may wrap a store by embedding the interface and overriding
// Get and Put, as a benchmark does to time them; any method added here
// would be promoted past such a wrapper. Request tracing therefore
// stays off the interface: proxy.Server reaches Store.PutTraced
// directly when it serves from a *Store.
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
	// whether the object was admitted. It builds the header values a hit
	// serves before obj becomes visible to Get.
	Put(url string, obj *Object) bool
	// Admits reports whether an object of size bytes under url would pass
	// Put's size test (the capacity of the store, or of url's shard). The
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
}

// Both implementations must satisfy the serving-path contract.
var (
	_ ObjectStore = (*Store)(nil)
	_ ObjectStore = (*ShardedStore)(nil)
)
