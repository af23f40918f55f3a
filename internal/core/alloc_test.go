package core

import (
	"fmt"
	"testing"

	"webcache/internal/policy"
	"webcache/internal/trace"
)

// TestAccessHitAllocs pins the steady-state allocation budget of the
// replay hot path: a cache hit — map lookup, metadata update, heap
// re-sift — must not allocate at all.
func TestAccessHitAllocs(t *testing.T) {
	pol := policy.NewSorted([]policy.Key{policy.KeySize, policy.KeyATime}, 0)
	c := New(Config{Capacity: 1 << 30, Policy: pol, Seed: 1})
	reqs := make([]trace.Request, 64)
	for i := range reqs {
		reqs[i] = trace.Request{
			Time: int64(i), URL: fmt.Sprintf("http://s/doc%02d", i),
			Size: int64(100 + i), Type: trace.Text,
		}
		c.Access(&reqs[i])
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		r := &reqs[i%len(reqs)]
		r.Time++
		if !c.Access(r) {
			t.Fatal("expected a hit")
		}
		i++
	})
	if avg != 0 {
		t.Errorf("Access hit allocates %.1f objects per request, want 0", avg)
	}
}

// TestEvictCycleAllocs checks that a full cache cycling through a fixed
// document population — every access a miss that evicts and re-inserts —
// recycles entries instead of allocating, once the pool is warm.
func TestEvictCycleAllocs(t *testing.T) {
	pol := policy.NewSorted([]policy.Key{policy.KeyATime}, 0)
	c := New(Config{Capacity: 1000, Policy: pol, Seed: 2, SizeHint: 4})
	reqs := make([]trace.Request, 8)
	for i := range reqs {
		// Each document fills over half the cache, so every insert evicts.
		reqs[i] = trace.Request{
			Time: int64(i), URL: fmt.Sprintf("http://s/big%d", i),
			Size: 600, Type: trace.Text,
		}
		c.Access(&reqs[i])
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		r := &reqs[i%len(reqs)]
		r.Time++
		if c.Access(r) {
			t.Fatal("expected a miss")
		}
		i++
	})
	if avg != 0 {
		t.Errorf("evict/insert cycle allocates %.1f objects per request, want 0", avg)
	}
}

// internedAllocTrace builds a columnar view of nDocs documents of the
// given size, cycled through rounds times, for the interned-mode
// allocation pins.
func internedAllocTrace(nDocs, rounds int, size int64) *trace.Columnar {
	tr := &trace.Trace{Name: "alloc", Start: 0}
	for r := 0; r < rounds; r++ {
		for d := 0; d < nDocs; d++ {
			tr.Requests = append(tr.Requests, trace.Request{
				Time: int64(r*nDocs + d), URL: fmt.Sprintf("http://s/doc%02d", d),
				Size: size, Type: trace.Text,
			})
		}
	}
	return tr.Columnar()
}

// TestAccessIndexHitAllocs pins the interned hot path: a hit — slice
// index, metadata update, heap re-sift — must not allocate. The entry
// table is pre-sized to the trace's ID count at construction, so the
// steady state touches no allocator at all.
func TestAccessIndexHitAllocs(t *testing.T) {
	col := internedAllocTrace(64, 2, 100)
	pol := policy.NewSorted([]policy.Key{policy.KeySize, policy.KeyATime}, 0)
	c := NewColumnar(Config{Capacity: 1 << 30, Policy: pol, Seed: 1, SizeHint: 64}, col)
	warm := col.Len() / 2
	for i := 0; i < warm; i++ {
		c.AccessIndex(i)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		if !c.AccessIndex(warm + i%warm) {
			t.Fatal("expected a hit")
		}
		i++
	})
	if avg != 0 {
		t.Errorf("interned hit allocates %.1f objects per request, want 0", avg)
	}
}

// TestEvictCycleAllocsInterned checks the interned evict→insert cycle:
// a full cache cycling through a fixed population recycles entries and
// never grows the ID table, so steady state allocates nothing.
func TestEvictCycleAllocsInterned(t *testing.T) {
	col := internedAllocTrace(8, 60, 600)
	pol := policy.NewSorted([]policy.Key{policy.KeyATime}, 0)
	// Capacity holds one 600-byte document: every access evicts+inserts.
	c := NewColumnar(Config{Capacity: 1000, Policy: pol, Seed: 2, SizeHint: 4}, col)
	warm := 8 * 30
	for i := 0; i < warm; i++ {
		c.AccessIndex(i)
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		if c.AccessIndex(warm + i%warm) {
			t.Fatal("expected a miss")
		}
		i++
	})
	if avg != 0 {
		t.Errorf("interned evict/insert cycle allocates %.1f objects per request, want 0", avg)
	}
}
