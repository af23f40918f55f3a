// Interned mode: the cache indexes resident documents by the trace's
// dense int32 URL IDs instead of by URL string. A policy sweep interns
// the trace once (trace.Columnar) and every replay then runs map-free:
// the per-request path is a slice index, not a string hash, and the
// §1.1 dynamic-document test reads a per-ID table instead of
// re-classifying the URL. Simulation output is byte-identical to the
// string-indexed engine — same hit decisions, same RNG call sequence,
// same eviction order (the benchreplay harness and the sim equivalence
// tests enforce this).

package core

import (
	"sync"

	"webcache/internal/policy"
	"webcache/internal/trace"
)

// tablePool holds the entry tables of released interned caches, every
// slot up to capacity nil.
var tablePool sync.Pool

// NewColumnar returns a cache over the interned columnar trace view.
// The entry table is pre-sized to col.NumIDs() — exact, not a hint —
// so steady-state replay in this mode allocates nothing; a table a
// released cache left behind is reused when it is large enough.
// Requests are fed with AccessIndex; Access panics in this mode.
func NewColumnar(cfg Config, col *trace.Columnar) *Cache {
	c := newCache(cfg)
	c.col = col
	n := col.NumIDs()
	if t, _ := tablePool.Get().(*[]*policy.Entry); !DisableAllocOpts && t != nil && cap(*t) >= n {
		c.byID = (*t)[:n]
	} else {
		c.byID = make([]*policy.Entry, n)
	}
	return c
}

// Release hands the cache's entry memory to caches built after it: the
// entry pool's slabs and, in interned mode, the cleared ID table. Call
// it once the statistics have been read. Afterwards the cache, its
// policy and every entry the cache handed out are invalid and must not
// be used. Release does nothing when the cache does not recycle entries
// — an OnEvict observer may retain them, or DisableAllocOpts is set.
func (c *Cache) Release() {
	if !c.recycle {
		return
	}
	c.pool.Release()
	if t := c.byID; t != nil {
		clear(t)
		tablePool.Put(&t)
		c.byID = nil
	}
}

// Interned reports whether the cache indexes entries by interned ID.
func (c *Cache) Interned() bool { return c.byID != nil }

// AccessIndex processes request i of the attached columnar view and
// reports whether it hit. It is the interned counterpart of Access:
// statistics, hit rule, invalidation and eviction behavior are
// identical, only the entry lookup differs.
func (c *Cache) AccessIndex(i int) bool {
	col := c.col
	now := col.Times[i]
	size := col.Sizes[i]
	typ := col.Types[i]
	c.now = now
	if c.nowPol != nil {
		c.nowPol.SetNow(now)
	}

	c.stats.Requests++
	c.stats.BytesRequested += size
	ts := &c.stats.ByType[typ]
	ts.Requests++
	ts.BytesRequested += size

	id := col.IDs[i]
	if e := c.byID[id]; e != nil {
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
		// Size mismatch: the origin document changed, the cached copy
		// is inconsistent and must be replaced (§1.1).
		c.remove(e)
		c.stats.SizeChanges++
		if c.recycle {
			c.pool.Put(e)
		}
	}

	if c.cfg.Hooks.OnMiss != nil {
		c.cfg.Hooks.OnMiss(size, now)
	}
	c.insertID(id, size, typ, now)
	return false
}

// insertID stores document id, evicting as needed; it mirrors insert
// step for step so the two modes draw the same RNG sequence.
func (c *Cache) insertID(id int32, size int64, typ trace.DocType, now int64) {
	if c.cfg.ExcludeDynamic && c.col.Dynamic[id] {
		return
	}
	if !c.Infinite() && size > c.cfg.Capacity {
		c.stats.Bypassed++
		return
	}
	if !c.Infinite() {
		for c.stats.Used+size > c.cfg.Capacity {
			v := c.cfg.Policy.Victim(size)
			if v == nil {
				c.stats.Bypassed++
				return
			}
			c.evict(v)
		}
	}
	url := c.col.URLs[id]
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
	c.byID[id] = e
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
