// Package proxy implements a working HTTP caching proxy whose eviction
// is driven by the paper's removal-policy engine — the deployable
// counterpart of the simulator, demonstrating the library as a network
// cache rather than a model of one.
package proxy

import (
	"net/http"
	"sync"
	"sync/atomic"
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
}

// StoreStats counts store activity. Capacity is the store's current
// byte quota (rebalanced at runtime for a sharded store's shards); the
// Touch* fields account for the buffered hit path — drained touches
// were replayed into the policy, dropped ones hit a full buffer,
// stale ones outlived their entry (see SetTouchBuffer).
type StoreStats struct {
	Gets      int64
	Hits      int64
	Puts      int64
	Evictions int64
	Used      int64
	MaxUsed   int64
	Docs      int64
	Capacity  int64

	TouchDrained int64
	TouchDropped int64
	TouchStale   int64
}

// Store is a concurrency-safe, capacity-bounded object store whose
// removal victims are chosen by a policy.Policy (SIZE by default, the
// paper's recommendation for hit rate). All policy and map bookkeeping
// is guarded by one RWMutex; reads that mutate no shared state (Peek,
// Len, Stats — and Get, once a touch buffer is attached) take it
// shared, everything else exclusive. Get/Hit totals live in atomics so
// the read-locked hit path never writes shared struct fields. For
// parallel scaling across cores, wrap N of these in a ShardedStore.
type Store struct {
	mu       sync.RWMutex
	capacity int64
	pol      policy.Policy
	entries  map[string]*policy.Entry
	objects  map[string]*Object
	rnd      *rng.Rand
	stats    StoreStats // Gets/Hits/Capacity/Touch* tracked separately; see Stats
	now      func() time.Time
	hooks    core.CacheHooks

	gets atomic.Int64
	hits atomic.Int64

	// buf is the lossy touch ring of the buffered hit path; nil means
	// drain-synchronous mode (Get write-locks and touches inline). An
	// atomic pointer so Get can pick its path without any lock.
	buf atomic.Pointer[touchBuffer]

	// touchDrained/touchStale and drainScratch are drain-side state,
	// guarded by mu held exclusively.
	touchDrained int64
	touchStale   int64
	drainScratch []policy.TouchRecord
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

// SetTouchBuffer switches the hit path between its two modes. slots > 0
// attaches a lossy touch ring of that many atomic slots: Get takes only
// the read lock and buffers the policy update, which is drained in
// recorded order under the write lock by the next Put, by the Get that
// crosses the half-full threshold (TryLock, never blocking), and by
// FlushTouches. slots <= 0 (the default) is the drain-synchronous
// deterministic mode: Get write-locks and calls pol.Touch inline,
// byte-for-byte the unbuffered hit path — the mode cmd/proxy,
// livebench and the equivalence tests rely on.
//
// In buffered mode the OnHit hook fires before the entry's ATime/NRef
// are updated (the update happens at drain time); inline mode fires it
// after. Call before serving, like SetSeed and SetHooks.
func (s *Store) SetTouchBuffer(slots int) {
	if slots <= 0 {
		s.buf.Store(nil)
		return
	}
	s.buf.Store(newTouchBuffer(slots))
}

// Get returns the cached object for url, updating recency/frequency
// bookkeeping on a hit — inline under the write lock in synchronous
// mode, via the touch buffer under the read lock in buffered mode.
func (s *Store) Get(url string) (*Object, bool) { return s.get(url, nil) }

// GetTraced is Get with the request's span timeline attached: the
// buffered hit path records a touch.enqueue span. A nil rt is exactly
// Get (the untraced branch costs one nil check per site).
func (s *Store) GetTraced(url string, rt *obs.ReqTrace) (*Object, bool) { return s.get(url, rt) }

func (s *Store) get(url string, rt *obs.ReqTrace) (*Object, bool) {
	buf := s.buf.Load()
	if buf == nil {
		return s.getSync(url)
	}
	s.mu.RLock()
	e, ok := s.entries[url]
	if !ok {
		if s.hooks.OnMiss != nil {
			// Size 0: a live miss's size is unknown until the origin
			// responds (the fetch path counts the bytes).
			s.hooks.OnMiss(0, s.now().Unix())
		}
		s.mu.RUnlock()
		s.gets.Add(1)
		return nil, false
	}
	obj := s.objects[url]
	at := s.now().Unix()
	if s.hooks.OnHit != nil {
		s.hooks.OnHit(e)
	}
	s.mu.RUnlock()
	s.gets.Add(1)
	s.hits.Add(1)
	// The recorded touch is applied later; if the ring just crossed
	// half full, try to drain now without ever blocking the hit.
	var sp obs.SpanID
	if rt != nil {
		sp = rt.BeginSpan(obs.PhaseTouchEnqueue)
	}
	crossed := buf.record(e, at)
	if rt != nil {
		rt.EndSpan(sp)
	}
	if crossed && s.mu.TryLock() {
		s.drainTouchesLocked()
		s.mu.Unlock()
	}
	return obj, true
}

// getSync is the drain-synchronous hit path: the pre-buffer behavior,
// preserved exactly for deterministic replays.
func (s *Store) getSync(url string) (*Object, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets.Add(1)
	e, ok := s.entries[url]
	if !ok {
		if s.hooks.OnMiss != nil {
			s.hooks.OnMiss(0, s.now().Unix())
		}
		return nil, false
	}
	e.ATime = s.now().Unix()
	e.NRef++
	s.pol.Touch(e)
	s.hits.Add(1)
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
// Pending buffered touches are drained first, so victim selection sees
// the recency the hit path recorded.
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
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drainTouchesLocked()
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
// decide before it buffers a body whether to keep it.
func (s *Store) Admits(url string, size int64) bool { return size <= s.Quota() }

// Refresh updates the stored-at time of url's object after a successful
// revalidation (304 from the origin).
func (s *Store) Refresh(url string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if obj, ok := s.objects[url]; ok {
		obj.StoredAt = s.now()
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

// FlushTouches drains the touch buffer now, replaying every pending
// recorded hit into the policy, and returns the number applied. A
// no-op (0) in synchronous mode.
func (s *Store) FlushTouches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainTouchesLocked()
}

// drainTouchesLocked replays the buffered hits recorded up to now into
// the policy in ticket order. Caller holds mu exclusively. Records
// whose entry has been evicted, removed or replaced since the hit are
// discarded as stale (pointer-identity check), so the policy never
// sees a dead entry.
func (s *Store) drainTouchesLocked() int {
	b := s.buf.Load()
	if b == nil {
		return 0
	}
	head := b.head.Load()
	tail := b.tail.Load()
	if tail == head {
		return 0
	}
	n := uint64(len(b.slots))
	batch := s.drainScratch[:0]
	for t := tail; t != head; t++ {
		rec := b.slots[t%n].Swap(nil)
		if rec == nil {
			continue // dropped, or its writer is still publishing
		}
		if cur, ok := s.entries[rec.e.URL]; ok && cur == rec.e {
			batch = append(batch, policy.TouchRecord{Entry: rec.e, ATime: rec.at})
		} else {
			s.touchStale++
		}
		rec.e = nil
		touchRecPool.Put(rec)
	}
	b.tail.Store(head)
	policy.ReplayTouches(s.pol, batch)
	s.touchDrained += int64(len(batch))
	s.drainScratch = batch[:0]
	return len(batch)
}

// Len returns the number of cached objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Stats returns a snapshot of store counters. In synchronous mode the
// snapshot is exact (Gets/Hits are incremented under the lock Stats
// holds shared); in buffered mode the hit path increments them outside
// the lock, so the snapshot is monotonic but may be mid-update by up
// to the handful of Gets in flight.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Gets = s.gets.Load()
	st.Hits = s.hits.Load()
	st.Capacity = s.capacity
	st.TouchDrained = s.touchDrained
	st.TouchStale = s.touchStale
	if b := s.buf.Load(); b != nil {
		st.TouchDropped = b.dropped.Load()
	}
	return st
}

// Quota returns the store's current byte capacity. For a sharded
// store's shard this moves over time: the rebalancer shifts quota from
// cold shards to hot ones.
func (s *Store) Quota() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.capacity
}

// largestLocked returns the size of the largest resident entry (0 when
// empty). Caller holds mu.
func (s *Store) largestLocked() int64 {
	var largest int64
	for _, e := range s.entries {
		if e.Size > largest {
			largest = e.Size
		}
	}
	return largest
}

// donateQuota lowers the store's capacity by up to want bytes for the
// rebalancer, and returns the amount actually taken. The quota never
// drops below the bytes in use, the largest resident entry, or floor —
// recomputed here under the lock, so the invariant holds even if the
// shard admitted new objects since the rebalancer sampled it.
func (s *Store) donateQuota(want, floor int64) int64 {
	if want <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lowest := s.stats.Used
	if l := s.largestLocked(); l > lowest {
		lowest = l
	}
	if floor > lowest {
		lowest = floor
	}
	give := s.capacity - lowest
	if give <= 0 {
		return 0
	}
	if give > want {
		give = want
	}
	s.capacity -= give
	return give
}

// grantQuota raises the store's capacity by n bytes (the receiving side
// of a rebalance transfer).
func (s *Store) grantQuota(n int64) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.capacity += n
	s.mu.Unlock()
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
