// Interned mode: the cache indexes resident documents by the trace's
// dense int32 URL IDs instead of by URL string. A policy sweep interns
// the trace once (trace.Columnar) and every replay then runs map-free:
// the per-request path is a slice index, not a string hash. Only an
// insert reads the URL, from the view's ID → URL table, for the §1.1
// dynamic-document test. Simulation output is byte-identical to the
// string-indexed engine — same hit decisions, same RNG call sequence,
// same eviction order (the equivalence tests here and in internal/sim
// enforce this).

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
	if t, _ := tablePool.Get().(*[]*policy.Entry); t != nil && cap(*t) >= n {
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
// be used.
func (c *Cache) Release() {
	c.pool.Release()
	if t := c.byID; t != nil {
		clear(t)
		tablePool.Put(&t)
		c.byID = nil
	}
}

// AccessIndex processes request i of the attached columnar view and
// reports whether it hit. It is the interned counterpart of Access:
// only the entry lookup differs.
func (c *Cache) AccessIndex(i int) bool {
	col := c.col
	id := col.IDs[i]
	return c.access(c.byID[id], "", id, col.Sizes[i], col.Types[i], col.Times[i])
}
