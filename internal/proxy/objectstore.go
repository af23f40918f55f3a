package proxy

// ObjectStore is the contract the serving path programs against: the
// policy-driven object cache behind proxy.Server, the ICP responder
// and livebench's replay. Store is its one implementation; its
// set-up methods (Reserve, SetClock, SetSeed, RegisterMetrics) are
// not part of the contract. A store's byte capacity is fixed when it is built.
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
	// Admits reports whether an object of size bytes would pass Put's
	// size test, the capacity of the store. The miss path asks before it
	// reads a body, so one that Put would reject is never buffered; the
	// answer and Put's must agree.
	Admits(size int64) bool
	// Refresh re-stamps url's stored-at time after a 304 revalidation.
	Refresh(url string)
	// Remove drops url.
	Remove(url string)
	// Len returns the number of cached objects.
	Len() int
	// Stats returns a snapshot of store counters.
	Stats() StoreStats
}

var _ ObjectStore = (*Store)(nil)
