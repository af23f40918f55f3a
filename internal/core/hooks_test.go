package core

import (
	"fmt"
	"testing"

	"webcache/internal/policy"
	"webcache/internal/trace"
)

// hookCounts tallies the evictions OnEvict sees, the one cache
// callback.
type hookCounts struct {
	evicts, evictBytes int64
}

func (h *hookCounts) onEvict(e *policy.Entry) {
	h.evicts++
	h.evictBytes += e.Size
}

// hookTrace cycles nDocs documents rounds times with a small hot
// document interleaved between every pair, so hits (the hot document
// stays resident), misses, evictions (the cycle overflows capacity) and
// a §1.1 size-change invalidation (the hot document grows in the final
// round) all occur; only the evictions reach OnEvict.
func hookTrace(nDocs, rounds int, size int64) *trace.Trace {
	tr := &trace.Trace{Name: "hooks", Start: 0}
	now := int64(0)
	add := func(url string, sz int64) {
		tr.Requests = append(tr.Requests, trace.Request{
			Time: now, URL: url, Size: sz, Type: trace.Text,
		})
		now++
	}
	for r := 0; r < rounds; r++ {
		hotSize := int64(100)
		if r == rounds-1 {
			hotSize = 107
		}
		for d := 0; d < nDocs; d++ {
			add(fmt.Sprintf("http://s/doc%02d", d), size)
			add("http://s/hot", hotSize)
		}
	}
	return tr
}

// replayHooked runs tr through a cache with OnEvict set on the
// requested path and returns the observed evictions plus the final
// stats.
func replayHooked(t *testing.T, tr *trace.Trace, capacity int64, interned bool) (hookCounts, Stats) {
	t.Helper()
	var h hookCounts
	pol := policy.NewSorted([]policy.Key{policy.KeyATime}, 0)
	cfg := Config{Capacity: capacity, Policy: pol, Seed: 9, OnEvict: h.onEvict}
	if interned {
		col := tr.Columnar()
		c := NewColumnar(cfg, col)
		for i := 0; i < col.Len(); i++ {
			c.AccessIndex(i)
		}
		return h, c.Stats()
	}
	c := New(cfg)
	for i := range tr.Requests {
		c.Access(&tr.Requests[i])
	}
	return h, c.Stats()
}

// TestHooksMatchStats checks, on both request paths, that OnEvict
// fires exactly once per counted eviction, with the counted bytes, and
// never for a size-change invalidation.
func TestHooksMatchStats(t *testing.T) {
	tr := hookTrace(8, 5, 600)
	for _, interned := range []bool{false, true} {
		// Capacity 2000 holds three 600-byte documents: every round
		// evicts, and the size change invalidates.
		h, st := replayHooked(t, tr, 2000, interned)
		if h.evicts != st.Evictions {
			t.Errorf("interned=%v: OnEvict fired %d times, stats say %d", interned, h.evicts, st.Evictions)
		}
		if h.evictBytes != st.EvictedBytes {
			t.Errorf("interned=%v: OnEvict saw %d bytes, stats say %d", interned, h.evictBytes, st.EvictedBytes)
		}
		if st.Evictions == 0 || st.Hits == 0 || st.SizeChanges == 0 {
			t.Errorf("interned=%v: trace did not exercise all events: %+v", interned, st)
		}
	}
}

// TestHooksIdenticalAcrossPaths checks the two request paths evict the
// same victims' count and bytes for the same trace.
func TestHooksIdenticalAcrossPaths(t *testing.T) {
	tr := hookTrace(8, 5, 600)
	hs, _ := replayHooked(t, tr, 2000, false)
	hi, _ := replayHooked(t, tr, 2000, true)
	if hs != hi {
		t.Fatalf("evictions differ between paths:\n string: %+v\ninterned: %+v", hs, hi)
	}
}

// TestHooksDoNotPerturbSimulation checks that setting OnEvict changes
// no statistic: same trace, same seed, hooked and bare caches must end
// byte-identical.
func TestHooksDoNotPerturbSimulation(t *testing.T) {
	tr := hookTrace(8, 5, 600)
	for _, interned := range []bool{false, true} {
		_, hooked := replayHooked(t, tr, 2000, interned)
		pol := policy.NewSorted([]policy.Key{policy.KeyATime}, 0)
		cfg := Config{Capacity: 2000, Policy: pol, Seed: 9}
		var bare Stats
		if interned {
			col := tr.Columnar()
			c := NewColumnar(cfg, col)
			for i := 0; i < col.Len(); i++ {
				c.AccessIndex(i)
			}
			bare = c.Stats()
		} else {
			c := New(cfg)
			for i := range tr.Requests {
				c.Access(&tr.Requests[i])
			}
			bare = c.Stats()
		}
		if hooked != bare {
			t.Errorf("interned=%v: hooks perturbed stats:\nhooked: %+v\n  bare: %+v", interned, hooked, bare)
		}
	}
}

// TestMaxDocsTracksHeapPeak checks the MaxDocs high water mark: it must
// equal the deepest the resident-document count ever got.
func TestMaxDocsTracksHeapPeak(t *testing.T) {
	pol := policy.NewSorted([]policy.Key{policy.KeyATime}, 0)
	c := New(Config{Capacity: 2000, Policy: pol, Seed: 1})
	for i := 0; i < 6; i++ {
		c.Access(&trace.Request{
			Time: int64(i), URL: fmt.Sprintf("http://s/d%d", i),
			Size: 600, Type: trace.Text,
		})
	}
	st := c.Stats()
	// Capacity 2000 / 600-byte docs = at most 3 resident at once.
	if st.MaxDocs != 3 {
		t.Fatalf("MaxDocs = %d, want 3 (stats %+v)", st.MaxDocs, st)
	}
	if st.Docs > st.MaxDocs {
		t.Fatalf("Docs %d exceeds MaxDocs %d", st.Docs, st.MaxDocs)
	}
}

// TestHookedAccessAllocs extends the zero-alloc pins to a cache with
// OnEvict set: a callback that only touches captured counters must keep
// the evict/insert cycle allocation-free on both engines.
func TestHookedAccessAllocs(t *testing.T) {
	var h hookCounts
	pol := policy.NewSorted([]policy.Key{policy.KeyATime}, 0)
	c := New(Config{Capacity: 1000, Policy: pol, Seed: 2, SizeHint: 4, OnEvict: h.onEvict})
	reqs := make([]trace.Request, 8)
	for i := range reqs {
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
		c.Access(r)
		i++
	})
	if avg != 0 {
		t.Errorf("hooked evict/insert cycle allocates %.1f objects per request, want 0", avg)
	}

	col := internedAllocTrace(8, 60, 600)
	ci := NewColumnar(Config{Capacity: 1000, Policy: policy.NewSorted([]policy.Key{policy.KeyATime}, 0),
		Seed: 2, SizeHint: 4, OnEvict: h.onEvict}, col)
	warm := 8 * 30
	for j := 0; j < warm; j++ {
		ci.AccessIndex(j)
	}
	j := 0
	avg = testing.AllocsPerRun(200, func() {
		ci.AccessIndex(warm + j%warm)
		j++
	})
	if avg != 0 {
		t.Errorf("hooked interned cycle allocates %.1f objects per request, want 0", avg)
	}
}
