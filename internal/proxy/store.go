// Package proxy implements a working HTTP caching proxy whose eviction
// is driven by the paper's removal-policy engine — the deployable
// counterpart of the simulator, demonstrating the library as a network
// cache rather than a model of one.
package proxy

import (
	"net/http"
	"sync"
	"time"

	"webcache/internal/core"
	"webcache/internal/obs"
	"webcache/internal/policy"
)

// Object is a cached HTTP response body plus the metadata needed to
// serve and revalidate it.
type Object struct {
	Body         []byte
	ContentType  string
	LastModified time.Time
	StoredAt     time.Time

	// header is what a hit serves the fields above as: formatted once, by
	// the miss that fetched the object or else by Put, and shared by
	// every response.
	header entityHeader
}

// StoreStats counts store activity. Capacity is the store's byte
// capacity, fixed when the store is built.
type StoreStats struct {
	Gets      int64
	Hits      int64
	Puts      int64
	Evictions int64
	Used      int64
	MaxUsed   int64
	Docs      int64
	Capacity  int64
}

// Store is a concurrency-safe, capacity-bounded object store whose
// removal victims are chosen by a policy.Policy (SIZE by default, the
// paper's recommendation for hit rate). Admission, eviction and hit
// bookkeeping are a core.Cache's, the simulator's engine, through its
// live API; Store adds a lock, the bodies in a second map and a wall
// clock. Get and every mutation take the lock exclusively, because a
// hit stamps the entry's ATime and NRef and re-ranks it in the policy
// on the spot, as the simulator does; Peek, Len and Stats take it
// shared, so ICP queries can be answered beside traffic. Its counts are
// the cache's core.Stats, which Stats and RegisterMetrics read; hooks
// add events, not counts.
//
// The cache recycles evicted entries (core.Config.OnEvict is unset), so
// no *policy.Entry escapes Store: Get and Peek return only the *Object,
// and the CacheHooks given to SetHooks must not retain their entries
// (StoreHooks copies fields).
type Store struct {
	mu       sync.RWMutex
	capacity int64 // fixed by NewStore, so read without mu
	cfg      core.Config
	c        *core.Cache
	objects  map[string]*Object
	now      func() time.Time

	// onEvict is the OnEvict hook SetHooks was given, which the cache's
	// own, s.evicted, calls.
	onEvict func(e *policy.Entry, now int64)
	rt      *obs.ReqTrace // the trace of the PutTraced in progress
}

// NewStore returns a store with the given capacity in bytes and policy.
// A nil policy defaults to SIZE with a random secondary key. Capacity
// must be positive: a live proxy always has a disk/memory budget.
func NewStore(capacity int64, pol policy.Policy) *Store {
	if pol == nil {
		pol = policy.NewSorted([]policy.Key{policy.KeySize}, 0)
	}
	s := &Store{
		capacity: capacity,
		objects:  make(map[string]*Object),
		now:      time.Now,
	}
	s.cfg = core.Config{Capacity: capacity, Policy: pol, Hooks: core.CacheHooks{OnEvict: s.evicted}}
	s.c = core.New(s.cfg)
	return s
}

// rebuild replaces the cache with an empty one built from s.cfg. The
// setters that change s.cfg call it before the first Put.
func (s *Store) rebuild() {
	if s.c.Len() > 0 {
		panic("proxy: Store reconfigured after the first Put")
	}
	s.c = core.New(s.cfg)
}

// Reserve pre-sizes the store for an expected resident-document count:
// the entry and object maps allocate their buckets up front and the
// policy's backing structures grow through policy.Reserver — the
// simulator's core.Config.SizeHint. It is purely a performance hint:
// call it before serving; a non-positive hint or a store already
// holding objects makes it a no-op (re-hashing a live map would cost
// more than incremental growth).
func (s *Store) Reserve(docs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if docs <= 0 || s.c.Len() > 0 {
		return
	}
	s.cfg.SizeHint = docs
	s.rebuild()
	s.objects = make(map[string]*Object, docs)
}

// SetClock overrides the store's time source (tests).
func (s *Store) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// SetSeed sets the seed of the per-entry random tiebreak stream, as
// core.Config.Seed does. cmd/livebench passes the simulated cache's
// seed, making the two systems byte-for-byte comparable even for
// policies with frequent key ties (LRU at one-second timestamp
// resolution, LFU at low reference counts). Call before the first Put.
func (s *Store) SetSeed(seed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.Seed = seed
	s.rebuild()
}

// SetHooks attaches the same nil-checked cache event hooks the
// simulated core.Cache fires, so the live store feeds the identical
// observability surface (hit/miss/evict/add events with the evicted
// entry's age and NREF). Call before the first Put; unset hooks cost
// one branch per event, same contract as core.
func (s *Store) SetHooks(h core.CacheHooks) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onEvict = h.OnEvict
	h.OnEvict = s.evicted
	s.cfg.Hooks = h
	s.rebuild()
}

// Get returns the cached object for url. A hit stamps the entry's ATime
// with the store's clock, increments its NRef and re-ranks it in the
// policy before the OnHit hook fires, all under the write lock.
func (s *Store) Get(url string) (*Object, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.c.Lookup(url, s.now().Unix()) {
		return nil, false
	}
	return s.objects[url], true
}

// Peek reports whether url is cached, without updating recency,
// frequency or statistics. ICP responders use it so sibling queries do
// not distort the removal policy's bookkeeping.
func (s *Store) Peek(url string) (*Object, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[url]
	return obj, ok
}

// Put stores obj under url, evicting as needed. Objects larger than the
// whole store are not cached; Put reports whether it stored the object.
// Unless the miss path already did, Put formats the header values a hit
// serves from obj's fields, so obj must not change once it has been put.
func (s *Store) Put(url string, obj *Object) bool { return s.PutTraced(url, obj, nil) }

// PutTraced is Put with the request's span timeline attached: each
// victim the admission evicts becomes one evict span (annotated with
// the victim's bytes) and bumps the trace's eviction count. A nil rt
// is exactly Put.
func (s *Store) PutTraced(url string, obj *Object, rt *obs.ReqTrace) bool {
	size := int64(len(obj.Body))
	if obj.header[2] == "" { // no Content-Length: not formatted yet
		obj.header = makeEntityHeader(obj.ContentType, obj.LastModified, size)
	}
	if !s.Admits(size) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rt = rt
	ok := s.c.Insert(url, size, s.now().Unix())
	s.rt = nil
	if ok {
		s.objects[url] = obj
	}
	return ok
}

// evicted is the cache's OnEvict hook: it drops the victim's body and
// calls the caller's own hook. Inside a PutTraced, both are one evict
// span.
func (s *Store) evicted(e *policy.Entry, now int64) {
	sp := s.rt.BeginSpan(obs.PhaseEvict)
	delete(s.objects, e.URL)
	if s.onEvict != nil {
		s.onEvict(e, now)
	}
	s.rt.EndSpanArg(sp, e.Size)
	s.rt.CountEviction()
}

// Admits reports whether Put would accept an object of size bytes as
// far as size goes — the test at the top of Put, so the proxy can
// decide before it buffers a body whether to keep it. It takes no lock:
// nothing writes capacity after NewStore.
func (s *Store) Admits(size int64) bool { return size <= s.capacity }

// Refresh updates the stored-at time of url's object after a successful
// revalidation (304 from the origin). It installs a copy: a reader may
// still hold the object Get returned, which never changes.
func (s *Store) Refresh(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj, ok := s.objects[url]; ok {
		fresh := *obj
		fresh.StoredAt = s.now()
		s.objects[url] = &fresh
	}
}

// Remove drops url from the store.
func (s *Store) Remove(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.Remove(url)
	delete(s.objects, url)
}

// Len returns the number of cached objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.Len()
}

// Stats returns an exact snapshot of store counters: every counter is
// written under the write lock, and Stats holds the lock shared. A Put
// past Admits is one Insert, which the cache counts as inserted or
// bypassed.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.c.Stats()
	return StoreStats{
		Gets:      st.Requests,
		Hits:      st.Hits,
		Puts:      st.Inserted + st.Bypassed,
		Evictions: st.Evictions,
		Used:      st.Used,
		MaxUsed:   st.MaxUsed,
		Docs:      st.Docs,
		Capacity:  s.capacity,
	}
}

// headerSubset copies the entity headers a 1.0-era cache preserves.
func headerSubset(h http.Header) (contentType string, lastMod time.Time) {
	contentType = h.Get("Content-Type")
	if v := h.Get("Last-Modified"); v != "" {
		if t, err := http.ParseTime(v); err == nil {
			lastMod = t
		}
	}
	return contentType, lastMod
}
