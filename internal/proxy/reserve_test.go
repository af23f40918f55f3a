package proxy

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"webcache/internal/policy"
)

// fillMallocs populates a fresh store with docs documents and returns
// the number of heap allocations the fill performed.
func fillMallocs(docs int, reserve bool) uint64 {
	// A heap-backed policy, so policy.Reserver.Reserve has a backing
	// array to grow — the structural list/bucket backends mostly
	// pre-size nothing.
	pol := policy.NewSorted([]policy.Key{policy.KeyDayATime}, 0)
	s := NewStore(int64(docs)*1024, pol)
	if reserve {
		s.Reserve(docs)
	}
	urls := make([]string, docs)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://reserve.example.com/doc%d", i)
	}
	body := make([]byte, 16) // well under the per-doc budget: no evictions
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, u := range urls {
		s.Put(u, &Object{Body: body})
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestReserveAllocationPin pins the point of Store.Reserve: with the
// expected-documents hint, filling the store to that population must
// allocate measurably less than growing incrementally — the map
// re-hashes and heap re-sizes are paid once, up front, outside the
// serving path.
func TestReserveAllocationPin(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep GC assists out of the malloc counts
	const docs = 4096
	fillMallocs(docs, true) // warm both code paths once
	cold := fillMallocs(docs, false)
	reserved := fillMallocs(docs, true)
	// Incremental growth re-hashes two maps (~docs/8 buckets each,
	// doubling) and re-sizes the policy array; a generous floor of 32
	// saved allocations keeps the pin robust while still failing if
	// Reserve stops reaching either the maps or the policy.
	if reserved+32 > cold {
		t.Fatalf("Reserve saved too little: %d mallocs reserved vs %d unreserved", reserved, cold)
	}
	t.Logf("fill of %d docs: %d mallocs reserved, %d unreserved", docs, reserved, cold)
}

// TestReserveAfterServingIsNoop pins the documented contract: Reserve
// on a store already holding objects must not clear or replace the
// maps.
func TestReserveAfterServingIsNoop(t *testing.T) {
	s := NewStore(1<<20, nil)
	s.Put("http://late.example.com/a", &Object{Body: []byte("x")})
	s.Reserve(1024)
	if _, ok := s.Get("http://late.example.com/a"); !ok {
		t.Fatal("Reserve after first Put dropped a cached object")
	}
}
