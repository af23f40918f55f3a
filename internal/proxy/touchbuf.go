package proxy

// The touch buffer is what makes the hit path read-mostly lock-free:
// instead of write-locking the shard to re-sort the policy heap on
// every hit (PR 6's bottleneck — sharding bought parallelism between
// shards but every hit still serialized within one), Get records the
// hit in a fixed-size ring of atomic slots and returns under the read
// lock. The ring is drained in batches under the write lock — by the
// next Put before it picks victims, by the Get that crosses the
// pending threshold (via TryLock, never blocking the hit), and by
// FlushTouches — replaying the recorded hits into the policy in ticket
// order through policy.ReplayTouches. A read-only lull leaves recorded
// hits pending until one of those runs.
//
// The buffer is deliberately lossy, the "lightweight buffered
// maintenance" arrangement production caches use (BP-Wrapper, Caffeine
// and the size-aware cache of Einziger et al. all decouple access
// recording from policy maintenance this way): when the ring is full
// the hit's recency update is dropped and counted, never blocked on.
// A dropped touch only costs policy fidelity — the object is still
// served — and under the zipf traffic that fills buffers fastest, the
// hot documents that overflow the ring are exactly the ones whose
// extra touches carry the least new information.
//
// Loss and ordering semantics, precisely:
//
//   - A recorded touch is applied at most once.
//   - Touches from one goroutine between two drains are applied in
//     recorded order (tickets are monotonic; the drain walks them in
//     order). Cross-goroutine order is the ticket order, which is a
//     valid linearization of the concurrent hits.
//   - A touch is dropped (and counted) when its slot still holds an
//     undrained record — the ring lapped the drainer.
//   - A writer that stalls between taking its ticket and publishing
//     the record can miss its drain window; its touch is then either
//     applied by a later drain or dropped by a later writer reusing
//     the slot. Still at-most-once, still counted on the drop side.
//   - A drained touch whose entry has since been evicted, removed, or
//     replaced is discarded as stale (pointer-identity check against
//     the live entry map) — the policy never sees a dead entry.
//
// Buffer size 0 disables the buffer entirely: Get takes the write lock
// and updates the policy inline, byte-for-byte the pre-buffer hit
// path. That is the drain-synchronous deterministic mode cmd/proxy,
// livebench and the equivalence tests run in: the default, and the
// only mode in which eviction follows the simulator's global order.

import (
	"sync"
	"sync/atomic"

	"webcache/internal/policy"
)

// touchRec is one buffered hit. Records are pooled: the drain returns
// them after replay, so a steady hit stream allocates only while the
// pool warms up.
type touchRec struct {
	e  *policy.Entry
	at int64
}

var touchRecPool = sync.Pool{New: func() any { return new(touchRec) }}

// touchBuffer is the lossy ring. head is the global ticket counter
// (one per recorded hit, taken with a single atomic add); slot i%len
// is published with a CAS from nil so a full slot drops the new record
// instead of overwriting an undrained one. tail is the drain cursor —
// only advanced under the store's write lock, but read racily by the
// pending-count heuristic, hence atomic.
type touchBuffer struct {
	slots   []atomic.Pointer[touchRec]
	head    atomic.Uint64
	tail    atomic.Uint64
	dropped atomic.Int64
}

func newTouchBuffer(slots int) *touchBuffer {
	return &touchBuffer{slots: make([]atomic.Pointer[touchRec], slots)}
}

// record buffers one hit and reports whether the pending backlog has
// crossed the opportunistic-drain threshold (half the ring), so the
// caller can attempt a non-blocking drain.
func (b *touchBuffer) record(e *policy.Entry, at int64) bool {
	t := b.head.Add(1) - 1
	rec := touchRecPool.Get().(*touchRec)
	rec.e, rec.at = e, at
	if !b.slots[t%uint64(len(b.slots))].CompareAndSwap(nil, rec) {
		rec.e = nil
		touchRecPool.Put(rec)
		b.dropped.Add(1)
		return false
	}
	return t-b.tail.Load() >= uint64(len(b.slots)/2)
}

// pending estimates the undrained backlog (racy reads; heuristic only).
func (b *touchBuffer) pending() int64 {
	return int64(b.head.Load() - b.tail.Load())
}
