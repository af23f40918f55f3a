package core

import "webcache/internal/trace"

// TwoLevel models the paper's Experiment 3 hierarchy: a finite first
// level cache backed by a second level cache. A request missing L1 is
// forwarded to L2; an L2 hit returns a copy to L1, an L2 miss stores the
// document in both levels, so a document evicted from L1 is always still
// present in L2 (the paper's "primary cache sending replaced documents
// to a larger second level cache" arrangement).
type TwoLevel struct {
	L1 *Cache
	L2 *Cache

	requests int64
	bytes    int64
}

// NewTwoLevel builds a hierarchy from the two configurations. In the
// paper's Experiment 3, l1 has 10% of MaxNeeded with the SIZE policy and
// l2 is infinite.
func NewTwoLevel(l1, l2 Config) *TwoLevel {
	return &TwoLevel{L1: New(l1), L2: New(l2)}
}

// Access processes one request through the hierarchy and reports where
// it hit: (true, false) for an L1 hit, (false, true) for an L2 hit,
// (false, false) for a miss that went to the origin server.
func (t *TwoLevel) Access(req *trace.Request) (l1Hit, l2Hit bool) {
	t.requests++
	t.bytes += req.Size
	if t.L1.Access(req) {
		return true, false
	}
	// L1 missed and (re)inserted its copy; consult L2. L2.Access both
	// answers the consultation and keeps L2's copy current, inserting on
	// an L2 miss exactly as the paper describes.
	return false, t.L2.Access(req)
}

// L2HitRate returns the second level cache's hit rate measured over all
// client requests (the quantity plotted in Figs. 16-18), not just over
// the requests forwarded to L2.
func (t *TwoLevel) L2HitRate() float64 {
	if t.requests == 0 {
		return 0
	}
	return float64(t.L2.Stats().Hits) / float64(t.requests)
}

// Requests returns the number of requests processed by the hierarchy.
func (t *TwoLevel) Requests() int64 { return t.requests }

// BytesRequested returns the bytes requested through the hierarchy.
func (t *TwoLevel) BytesRequested() int64 { return t.bytes }
