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
	"webcache/internal/rng"
	"webcache/internal/trace"
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
// capacity, fixed when the store is built (summed over the shards of a
// sharded store).
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
// paper's recommendation for hit rate). All policy and map bookkeeping
// is guarded by one RWMutex: Get and every mutation take it exclusively,
// because a hit stamps the entry's ATime and NRef and re-ranks it in the
// policy on the spot, as the simulator does; Peek, Len and Stats take it
// shared, so ICP queries can be answered beside traffic. Eviction
// follows one global order, which is why cmd/proxy and livebench serve
// from this type.
type Store struct {
	mu       sync.RWMutex
	capacity int64 // fixed by NewStore, so read without mu
	pol      policy.Policy
	entries  map[string]*policy.Entry
	objects  map[string]*Object
	rnd      *rng.Rand
	stats    StoreStats // Capacity is filled in by Stats
	now      func() time.Time
	hooks    core.CacheHooks
}

// NewStore returns a store with the given capacity in bytes and policy.
// A nil policy defaults to SIZE with a random secondary key. Capacity
// must be positive: a live proxy always has a disk/memory budget.
func NewStore(capacity int64, pol policy.Policy) *Store {
	if pol == nil {
		pol = policy.NewSorted([]policy.Key{policy.KeySize}, 0)
	}
	return &Store{
		capacity: capacity,
		pol:      pol,
		entries:  make(map[string]*policy.Entry),
		objects:  make(map[string]*Object),
		rnd:      rng.New(0x9e3779b97f4a7c15),
		now:      time.Now,
	}
}

// Reserve pre-sizes the store for an expected resident-document count:
// the entry and object maps allocate their buckets up front and the
// policy's backing structures grow through policy.Reserver — the same
// pre-sizing the simulator's SizeHint path does for core.Cache. It is
// purely a performance hint: call it before serving; a non-positive
// hint or a store already holding objects makes it a no-op (re-hashing
// a live map would cost more than incremental growth).
func (s *Store) Reserve(docs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if docs <= 0 || len(s.entries) > 0 {
		return
	}
	if r, ok := s.pol.(policy.Reserver); ok {
		r.Reserve(docs)
	}
	s.entries = make(map[string]*policy.Entry, docs)
	s.objects = make(map[string]*Object, docs)
}

// SetClock overrides the store's time source (tests).
func (s *Store) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// SetSeed re-seeds the per-entry random tiebreak stream. cmd/livebench
// uses it to give the live store the same tiebreak sequence as a
// simulated core.Cache, making the two systems byte-for-byte comparable
// even for policies with frequent key ties (LRU at one-second timestamp
// resolution, LFU at low reference counts). Call before any Put.
func (s *Store) SetSeed(seed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rnd = rng.New(seed)
}

// SetHooks attaches the same nil-checked cache event hooks the
// simulated core.Cache fires, so the live store feeds the identical
// observability surface (hit/miss/evict/add events with the evicted
// entry's age and NREF). Call before serving; unset hooks cost one
// branch per event, same contract as core.
func (s *Store) SetHooks(h core.CacheHooks) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = h
}

// Get returns the cached object for url. A hit stamps the entry's ATime
// with the store's clock, increments its NRef and re-ranks it in the
// policy before the OnHit hook fires, all under the write lock.
func (s *Store) Get(url string) (*Object, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	e, ok := s.entries[url]
	if !ok {
		if s.hooks.OnMiss != nil {
			// Size 0: a live miss's size is unknown until the origin
			// responds (the fetch path counts the bytes).
			s.hooks.OnMiss(0, s.now().Unix())
		}
		return nil, false
	}
	e.ATime = s.now().Unix()
	e.NRef++
	s.pol.Touch(e)
	s.stats.Hits++
	if s.hooks.OnHit != nil {
		s.hooks.OnHit(e)
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
func (s *Store) Put(url string, obj *Object) bool { return s.put(url, obj, nil) }

// PutTraced is Put with the request's span timeline attached: each
// victim the admission evicts becomes one evict span (annotated with
// the victim's bytes) and bumps the trace's eviction count. A nil rt
// is exactly Put.
func (s *Store) PutTraced(url string, obj *Object, rt *obs.ReqTrace) bool {
	return s.put(url, obj, rt)
}

func (s *Store) put(url string, obj *Object, rt *obs.ReqTrace) bool {
	size := int64(len(obj.Body))
	if obj.header[2] == "" { // no Content-Length: not formatted yet
		obj.header = makeEntityHeader(obj.ContentType, obj.LastModified, size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if size > s.capacity {
		return false
	}
	s.stats.Puts++
	// Replacement must be atomic: the old entry is taken out before the
	// eviction loop (its bytes are being superseded, and the policy must
	// not pick it as its own replacement's victim), but if no victim set
	// can make room for the new object, the old one is reinstated rather
	// than silently lost.
	old, hadOld := s.entries[url]
	var oldObj *Object
	if hadOld {
		oldObj = s.objects[url]
		s.removeLocked(old)
	}
	now := s.now().Unix()
	for s.stats.Used+size > s.capacity {
		var sp obs.SpanID
		if rt != nil {
			sp = rt.BeginSpan(obs.PhaseEvict)
		}
		v := s.pol.Victim(size)
		if v == nil {
			if rt != nil {
				// Arg -1: the victim search failed, admission denied.
				rt.EndSpanArg(sp, -1)
			}
			if hadOld {
				s.entries[url] = old
				s.objects[url] = oldObj
				s.pol.Add(old)
				s.stats.Used += old.Size
				s.stats.Docs++
			}
			return false
		}
		s.removeLocked(v)
		s.stats.Evictions++
		if rt != nil {
			rt.EndSpanArg(sp, v.Size)
			rt.CountEviction()
		}
		if s.hooks.OnEvict != nil {
			s.hooks.OnEvict(v, now)
		}
	}
	e := policy.NewEntry(url, size, trace.ClassifyURL(url), now, s.rnd.Uint64())
	s.entries[url] = e
	s.objects[url] = obj
	s.pol.Add(e)
	s.stats.Used += size
	s.stats.Docs++
	if s.stats.Used > s.stats.MaxUsed {
		s.stats.MaxUsed = s.stats.Used
	}
	if s.hooks.OnAdd != nil {
		s.hooks.OnAdd(e)
	}
	return true
}

// Admits reports whether Put would accept an object of size bytes under
// url as far as size goes — the test at the top of put, so the proxy can
// decide before it buffers a body whether to keep it. It takes no lock:
// nothing writes capacity after NewStore.
func (s *Store) Admits(url string, size int64) bool { return size <= s.capacity }

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
	if e, ok := s.entries[url]; ok {
		s.removeLocked(e)
	}
}

func (s *Store) removeLocked(e *policy.Entry) {
	s.pol.Remove(e)
	delete(s.entries, e.URL)
	delete(s.objects, e.URL)
	s.stats.Used -= e.Size
	s.stats.Docs--
}

// Len returns the number of cached objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Stats returns an exact snapshot of store counters: every counter is
// written under the write lock, and Stats holds the lock shared.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Capacity = s.capacity
	return st
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
