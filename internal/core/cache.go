// Package core implements the paper's trace-driven proxy cache: a
// finite- or infinite-capacity document store whose removals are chosen
// by a pluggable policy (internal/policy), with the exact hit and
// consistency semantics of §1.1 of the paper.
//
// A request is a hit iff the cache holds a copy matching the requested
// URL *and* size; a size mismatch means the origin document changed, so
// the stale copy is invalidated and the request is a miss. Removal is
// on-demand: when a miss must store a document and free space is
// insufficient, victims are removed from the head of the policy's sorted
// order until the document fits (§1.2). A periodic sweep to a comfort
// level (the Pitkow/Recker variant of §1.3) is available as an option.
package core

import (
	"fmt"

	"webcache/internal/policy"
	"webcache/internal/rng"
	"webcache/internal/trace"
)

// Stats accumulates the simulator's response variables: hit rate,
// weighted (byte) hit rate, and maximum cache size needed, plus
// bookkeeping useful for analysis. Per-type rows support Experiment 4.
type Stats struct {
	Requests       int64
	Hits           int64
	BytesRequested int64
	BytesHit       int64

	Evictions    int64
	EvictedBytes int64
	Inserted     int64
	Bypassed     int64 // documents larger than the whole cache, never stored
	SizeChanges  int64 // cached copies invalidated by a size change

	Used    int64 // bytes currently cached
	MaxUsed int64 // peak bytes cached (MaxNeeded when capacity is infinite)
	Docs    int64 // documents currently cached
	MaxDocs int64 // peak documents cached (the policy heap's deepest point)

	ByType [trace.NumDocTypes]TypeStats
}

// TypeStats is the per-media-type slice of Stats.
type TypeStats struct {
	Requests       int64
	Hits           int64
	BytesRequested int64
	BytesHit       int64
}

// HitRate returns hits/requests (HR), in [0, 1].
func (s *Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// WeightedHitRate returns bytesHit/bytesRequested (WHR), in [0, 1].
func (s *Stats) WeightedHitRate() float64 {
	if s.BytesRequested == 0 {
		return 0
	}
	return float64(s.BytesHit) / float64(s.BytesRequested)
}

// Config configures a Cache.
type Config struct {
	// Capacity is the cache size in bytes; 0 or negative means infinite
	// (Experiment 1).
	Capacity int64
	// Policy selects removal victims. It may be nil for an infinite
	// cache, which never removes.
	Policy policy.Policy
	// Seed derives the per-entry random tiebreak values.
	Seed uint64
	// ExcludeDynamic, when set, never caches dynamically generated
	// documents (CGI paths / query strings). The paper's simulator
	// cached every valid request, so this defaults to off.
	ExcludeDynamic bool
	// LatencyOf, when non-nil, estimates the refetch latency of a URL in
	// seconds; it feeds the KeyLatency extension key.
	LatencyOf func(url string, size int64) float64
	// ExpiresOf, when non-nil, assigns an expiration time (Unix seconds;
	// 0 = never) to a document inserted at time now; it feeds the
	// ExpiredFirst policy wrapper (§5 open problem 4).
	ExpiresOf func(url string, size, now int64) int64
	// OnEvict, when non-nil, observes every evicted entry (used by
	// hierarchy experiments and tests). Setting it disables entry
	// recycling for evictions, since the observer may retain the entry.
	OnEvict func(e *policy.Entry)
	// Hooks observes per-request cache events for the observability
	// layer (internal/obs). Unlike OnEvict, hooks must not retain
	// entries past the call — recycling stays enabled — and unset slots
	// cost exactly one nil check each, preserving the hot path's
	// zero-overhead contract when observability is off.
	Hooks CacheHooks
	// SizeHint estimates how many documents will be resident at once.
	// The cache pre-sizes its URL index and the policy's heap (via
	// policy.Reserver) from it. Purely a performance hint: simulation
	// results are identical for any value, including zero.
	SizeHint int
}

// CacheHooks is the observability layer's view of a cache: one
// nil-checked function slot per event, fired on both the string-indexed
// (Access) and interned (AccessIndex) request paths at exactly the same
// points. The zero value disables every event. Hooks run synchronously
// on the replay goroutine and must be cheap (an atomic add) and must
// not retain the *policy.Entry: entries are recycled into later inserts
// once the hook returns.
type CacheHooks struct {
	// OnHit fires on every §1.1 hit, after the entry's metadata and the
	// policy order have been refreshed.
	OnHit func(e *policy.Entry)
	// OnMiss fires on every miss — including size-change invalidations —
	// with the requested document size and the request time, before any
	// insertion work.
	OnMiss func(size, now int64)
	// OnEvict fires for every policy-chosen victim, after removal, with
	// the eviction time — now-e.ETime is the victim's exact age in
	// cache, the quantity the eviction-age histograms bin.
	OnEvict func(e *policy.Entry, now int64)
	// OnAdd fires after a document is stored and handed to the policy.
	OnAdd func(e *policy.Entry)
}

// Any reports whether at least one hook slot is set.
func (h *CacheHooks) Any() bool {
	return h.OnHit != nil || h.OnMiss != nil || h.OnEvict != nil || h.OnAdd != nil
}

// Cache is a simulated proxy cache. It indexes resident documents
// either by URL string (New) or, when built over an interned columnar
// trace view (NewColumnar), by dense int32 URL ID — the two modes are
// behaviorally identical; the ID table just removes string hashing
// from the per-request path.
type Cache struct {
	cfg     Config
	entries map[string]*policy.Entry
	rnd     *rng.Rand
	stats   Stats
	now     int64

	// col and byID implement the interned mode: byID is the ID-indexed
	// entry table (nil slot = not cached), sized to col.NumIDs() at
	// construction so steady-state replay never grows it. entries is
	// nil in this mode.
	col  *trace.Columnar
	byID []*policy.Entry

	// nowPol caches the cfg.Policy type assertion so the per-request
	// hot path pays a nil check instead of an interface assertion.
	nowPol nowAware
	// pool recycles detached entries back into inserts; recycle gates
	// whether evicted entries may enter it (false when an OnEvict
	// observer could retain them).
	pool    policy.EntryPool
	recycle bool
}

// nowAware is implemented by policies that want the simulation clock
// (Pitkow/Recker's day test).
type nowAware interface{ SetNow(int64) }

// New returns a cache with the given configuration, indexing documents
// by URL string.
func New(cfg Config) *Cache {
	hint := 1024
	if cfg.SizeHint > hint {
		hint = cfg.SizeHint
	}
	c := newCache(cfg)
	c.entries = make(map[string]*policy.Entry, hint)
	return c
}

// newCache builds the index-independent parts of a cache.
func newCache(cfg Config) *Cache {
	c := &Cache{
		cfg: cfg,
		rnd: rng.New(cfg.Seed ^ 0x9e3779b97f4a7c15),
	}
	c.nowPol, _ = cfg.Policy.(nowAware)
	c.recycle = cfg.OnEvict == nil
	if cfg.SizeHint > 0 {
		if r, ok := cfg.Policy.(policy.Reserver); ok {
			r.Reserve(cfg.SizeHint)
		}
	}
	return c
}

// Infinite reports whether the cache has unbounded capacity.
func (c *Cache) Infinite() bool { return c.cfg.Capacity <= 0 }

// Capacity returns the configured capacity (0 means infinite).
func (c *Cache) Capacity() int64 {
	if c.cfg.Capacity < 0 {
		return 0
	}
	return c.cfg.Capacity
}

// Stats returns a snapshot of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Len returns the number of cached documents.
func (c *Cache) Len() int { return int(c.stats.Docs) }

// Used returns the bytes currently cached.
func (c *Cache) Used() int64 { return c.stats.Used }

// Contains reports whether the cache holds a copy of url with the given
// size (the §1.1 hit test) without touching any metadata.
func (c *Cache) Contains(url string, size int64) bool {
	if c.byID != nil {
		id, ok := c.col.ID(url)
		if !ok {
			return false
		}
		e := c.byID[id]
		return e != nil && e.Size == size
	}
	e, ok := c.entries[url]
	return ok && e.Size == size
}

// Access processes one validated trace request and reports whether it
// hit. All statistics are updated. On a cache built with NewColumnar,
// use AccessIndex instead — Access panics there, since a request not
// drawn from the interned trace has no ID to store an entry under.
func (c *Cache) Access(req *trace.Request) bool {
	if c.byID != nil {
		panic("core: Access called on an interned cache; use AccessIndex")
	}
	return c.access(c.entries[req.URL], req.URL, -1, req.Size, req.Type, req.Time)
}

// access is the request step of both index modes: e is the resident
// entry the mode's lookup found for the document (nil when none). The
// document is named by url in string mode and by id in interned mode.
func (c *Cache) access(e *policy.Entry, url string, id int32, size int64, typ trace.DocType, now int64) bool {
	c.now = now
	if c.nowPol != nil {
		c.nowPol.SetNow(now)
	}

	c.stats.Requests++
	c.stats.BytesRequested += size
	ts := &c.stats.ByType[typ]
	ts.Requests++
	ts.BytesRequested += size

	if e != nil {
		if e.Size == size {
			e.ATime = now
			e.NRef++
			if c.cfg.Policy != nil {
				c.cfg.Policy.Touch(e)
			}
			c.stats.Hits++
			c.stats.BytesHit += size
			ts.Hits++
			ts.BytesHit += size
			if c.cfg.Hooks.OnHit != nil {
				c.cfg.Hooks.OnHit(e)
			}
			return true
		}
		// The document changed on the origin server: the cached copy is
		// inconsistent and must be replaced (§1.1).
		c.remove(e)
		c.stats.SizeChanges++
		if c.recycle {
			c.pool.Put(e)
		}
	}

	if c.cfg.Hooks.OnMiss != nil {
		c.cfg.Hooks.OnMiss(size, now)
	}
	c.insert(url, id, size, typ, now)
	return false
}

// insert stores the requested document, evicting as needed. Both modes
// draw the same RNG sequence; in interned mode url is empty until the
// document's URL is read from the trace view.
func (c *Cache) insert(url string, id int32, size int64, typ trace.DocType, now int64) {
	if c.cfg.ExcludeDynamic {
		if c.byID != nil && c.col.Dynamic[id] || c.byID == nil && trace.IsDynamic(url) {
			return
		}
	}
	if !c.Infinite() && size > c.cfg.Capacity {
		// The document can never fit; serve it without caching. The
		// paper's traces never trigger this at the studied sizes, but a
		// robust cache must not empty itself trying.
		c.stats.Bypassed++
		return
	}
	if !c.Infinite() {
		for c.stats.Used+size > c.cfg.Capacity {
			v := c.cfg.Policy.Victim(size)
			if v == nil {
				// No removable documents remain; should be impossible
				// given the capacity check above.
				c.stats.Bypassed++
				return
			}
			c.evict(v)
		}
	}
	if c.byID != nil {
		url = c.col.URLs[id]
	}
	var e *policy.Entry
	if c.recycle {
		e = c.pool.Get(url, size, typ, now, c.rnd.Uint64())
	} else {
		e = policy.NewEntry(url, size, typ, now, c.rnd.Uint64())
	}
	e.ID = id
	if c.cfg.LatencyOf != nil {
		e.Latency = c.cfg.LatencyOf(url, size)
	}
	if c.cfg.ExpiresOf != nil {
		e.Expires = c.cfg.ExpiresOf(url, size, now)
	}
	if c.byID != nil {
		c.byID[id] = e
	} else {
		c.entries[url] = e
	}
	c.stats.Used += size
	c.stats.Docs++
	c.stats.Inserted++
	if c.stats.Used > c.stats.MaxUsed {
		c.stats.MaxUsed = c.stats.Used
	}
	if c.stats.Docs > c.stats.MaxDocs {
		c.stats.MaxDocs = c.stats.Docs
	}
	if c.cfg.Policy != nil {
		c.cfg.Policy.Add(e)
	}
	if c.cfg.Hooks.OnAdd != nil {
		c.cfg.Hooks.OnAdd(e)
	}
}

// evict removes a policy-chosen victim and notifies the observer. When
// no observer can retain the entry it is recycled into the pool, so
// the eviction→insert cycle of a full cache allocates nothing.
func (c *Cache) evict(e *policy.Entry) {
	c.remove(e)
	c.stats.Evictions++
	c.stats.EvictedBytes += e.Size
	if c.cfg.Hooks.OnEvict != nil {
		c.cfg.Hooks.OnEvict(e, c.now)
	}
	if c.cfg.OnEvict != nil {
		c.cfg.OnEvict(e)
	}
	if c.recycle {
		c.pool.Put(e)
	}
}

// remove detaches e from the cache and policy without eviction stats.
func (c *Cache) remove(e *policy.Entry) {
	if c.byID != nil {
		c.byID[e.ID] = nil
	} else {
		delete(c.entries, e.URL)
	}
	c.stats.Used -= e.Size
	c.stats.Docs--
	if c.cfg.Policy != nil {
		c.cfg.Policy.Remove(e)
	}
}

// Sweep removes documents until used space is at most comfort*capacity
// (the Pitkow/Recker periodic removal of §1.3, run e.g. at the end of
// each simulated day). It returns the number of documents removed. Sweep
// on an infinite cache is a no-op.
func (c *Cache) Sweep(comfort float64) int {
	if c.Infinite() || c.cfg.Policy == nil {
		return 0
	}
	if comfort < 0 {
		comfort = 0
	}
	target := int64(comfort * float64(c.cfg.Capacity))
	removed := 0
	for c.stats.Used > target {
		v := c.cfg.Policy.Victim(0)
		if v == nil {
			break
		}
		c.evict(v)
		removed++
	}
	return removed
}

// CheckInvariants panics if the cache's bookkeeping is inconsistent; it
// is exercised by the property tests.
func (c *Cache) CheckInvariants() {
	var used, docs int64
	if c.byID != nil {
		for id, e := range c.byID {
			if e == nil {
				continue
			}
			if e.ID != int32(id) {
				panic(fmt.Sprintf("core: slot %d holds entry with ID %d", id, e.ID))
			}
			if e.URL != c.col.URLs[id] {
				panic(fmt.Sprintf("core: slot %d holds entry for %q, want %q", id, e.URL, c.col.URLs[id]))
			}
			used += e.Size
			docs++
		}
	} else {
		for url, e := range c.entries {
			if e.URL != url {
				panic(fmt.Sprintf("core: entry key %q holds entry for %q", url, e.URL))
			}
			used += e.Size
			docs++
		}
	}
	if used != c.stats.Used {
		panic(fmt.Sprintf("core: used bytes %d != recorded %d", used, c.stats.Used))
	}
	if docs != c.stats.Docs {
		panic(fmt.Sprintf("core: %d entries != recorded %d", docs, c.stats.Docs))
	}
	if !c.Infinite() && c.stats.Used > c.cfg.Capacity {
		panic(fmt.Sprintf("core: used %d exceeds capacity %d", c.stats.Used, c.cfg.Capacity))
	}
	if c.cfg.Policy != nil && int64(c.cfg.Policy.Len()) != docs {
		panic(fmt.Sprintf("core: policy tracks %d entries, cache holds %d", c.cfg.Policy.Len(), docs))
	}
}
