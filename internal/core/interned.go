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
	"webcache/internal/policy"
	"webcache/internal/trace"
)

// NewColumnar returns a cache over the interned columnar trace view.
// The entry table has col.NumIDs() slots — exact, not a hint — so
// steady-state replay in this mode allocates nothing; its array comes
// from policy.GetEntries, which reuses one a released cache left behind.
// Requests are fed with AccessIndex; Access panics in this mode.
func NewColumnar(cfg Config, col *trace.Columnar) *Cache {
	c := newCache(cfg)
	c.col = col
	c.byID = policy.GetEntries(col.NumIDs())
	return c
}

// Release hands the cache's memory to caches built after it: the entry
// pool's slabs and free slice, the policy's arrays (policy.Release)
// and, in interned mode, the ID table. Call it once the statistics
// have been read. Afterwards the cache, its policy and every entry the
// cache handed out are invalid and must not be used.
func (c *Cache) Release() {
	c.pool.Release()
	policy.Release(c.cfg.Policy)
	policy.PutEntries(c.byID)
	c.byID = nil
}

// AccessIndex processes request i of the attached columnar view and
// reports whether it hit. It is the interned counterpart of Access:
// only the entry lookup differs.
func (c *Cache) AccessIndex(i int) bool {
	col := c.col
	id := col.IDs[i]
	return c.access(c.byID[id], "", id, col.Sizes[i], col.Types[i], col.Times[i])
}
