package policy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"webcache/internal/trace"
)

// randomEntries returns n entries whose field values are drawn from
// deliberately small domains, so every individual key collides often and
// the comparators are forced through their secondary keys, the RANDOM
// tiebreak, and finally the URL tiebreak. Two entries carry a NaN
// latency to pin the KeyLatency NaN handling.
func randomEntries(r *rand.Rand, n int) []*Entry {
	types := []trace.DocType{trace.Graphics, trace.Text, trace.Audio, trace.Video, trace.CGI, trace.Unknown}
	sizes := []int64{1, 2, 100, 1024, 1500, 2048, 65536}
	entries := make([]*Entry, n)
	for i := range entries {
		e := NewEntry(fmt.Sprintf("http://s/rand%04d", i), sizes[r.Intn(len(sizes))],
			types[r.Intn(len(types))], int64(r.Intn(4))*43200, uint64(r.Intn(6)))
		e.ATime = int64(r.Intn(6)) * 43200
		e.NRef = int64(1 + r.Intn(3))
		e.Latency = float64(r.Intn(4)) * 0.5
		if i%29 == 0 {
			e.Latency = math.NaN()
		}
		entries[i] = e
	}
	return entries
}

// compiledKeySets enumerates every key sequence the simulator can hand
// to CompileLess: the single keys (including the §5 extensions), every
// ordered Table 1 pair with and without an explicit RANDOM secondary,
// the experiment-design combos, the Pitkow/Recker pair, the Hyper-G
// triple, and a set only the generic fallback covers.
func compiledKeySets() [][]Key {
	sets := [][]Key{
		{KeySize}, {KeyLog2Size}, {KeyETime}, {KeyATime}, {KeyDayATime},
		{KeyNRef}, {KeyRandom}, {KeyType}, {KeyLatency},
		{KeyDayATime, KeySize},       // Pitkow/Recker
		{KeyNRef, KeyATime, KeySize}, // Hyper-G
		{KeyType, KeyLatency},        // extension pair (generic fallback)
		{KeySize, KeyATime, KeyNRef}, // unspecialized triple (generic fallback)
	}
	for _, p := range TableOneKeys {
		sets = append(sets, []Key{p, KeyRandom})
		for _, s := range TableOneKeys {
			if s != p {
				sets = append(sets, []Key{p, s})
			}
		}
	}
	for _, c := range AllCombos() {
		sets = append(sets, comboKeys(c))
	}
	return sets
}

// TestCompiledMatchesGeneric checks, pairwise over randomized
// collision-heavy populations and several day anchors, that the
// comparator CompileLess returns agrees exactly with the generic Less —
// the compiled layer's correctness oracle.
func TestCompiledMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	entries := randomEntries(r, 80)
	for _, dayStart := range []int64{0, 500, 86400} {
		for _, e := range entries {
			e.SyncDerived(dayStart)
		}
		for _, keys := range compiledKeySets() {
			name := ""
			for _, k := range keys {
				name += "/" + k.String()
			}
			compiled := CompileLess(keys, dayStart)
			generic := Less(keys, dayStart)
			for _, a := range entries {
				for _, b := range entries {
					if got, want := compiled(a, b), generic(a, b); got != want {
						t.Fatalf("%s@%d: compiled(%s, %s) = %v, generic = %v",
							name, dayStart, a.URL, b.URL, got, want)
					}
				}
			}
		}
	}
}

// TestCompiledCoversExperimentDesign asserts that every comparator of
// the paper's experiment design gets a dedicated specialization rather
// than the generic fallback: the Table 1 singles, all 36 combos, the
// Pitkow/Recker pair, and the Hyper-G triple.
func TestCompiledCoversExperimentDesign(t *testing.T) {
	check := func(keys []Key) {
		t.Helper()
		if compiledFor(keys) == nil {
			t.Errorf("no compiled specialization for %v", keys)
		}
	}
	for _, k := range TableOneKeys {
		check([]Key{k})
	}
	for _, c := range AllCombos() {
		check(comboKeys(c))
	}
	check([]Key{KeyDayATime, KeySize})
	check([]Key{KeyNRef, KeyATime, KeySize})
}

// TestDisableCompiledFallsBack checks the ablation switch: with
// compiled comparators off, CompileLess must still produce the same
// order (via the generic path).
func TestDisableCompiledFallsBack(t *testing.T) {
	DisableCompiled = true
	defer func() { DisableCompiled = false }()
	r := rand.New(rand.NewSource(11))
	entries := randomEntries(r, 40)
	for _, e := range entries {
		e.SyncDerived(0)
	}
	less := CompileLess([]Key{KeySize, KeyATime}, 0)
	generic := Less([]Key{KeySize, KeyATime}, 0)
	for _, a := range entries {
		for _, b := range entries {
			if less(a, b) != generic(a, b) {
				t.Fatalf("disabled CompileLess disagrees with Less on %s, %s", a.URL, b.URL)
			}
		}
	}
}

// TestEntryPoolRecycles checks that Get reuses a Put entry and resets it
// to the NewEntry state.
func TestEntryPoolRecycles(t *testing.T) {
	var p EntryPool
	e := NewEntry("http://s/old", 100, trace.Text, 10, 1)
	e.NRef = 9
	e.Latency = 2.5
	e.Expires = 99
	p.Put(e)
	if p.Len() != 1 {
		t.Fatalf("pool len = %d, want 1", p.Len())
	}
	got := p.Get("http://s/new", 2048, trace.Graphics, 20, 7)
	if got != e {
		t.Fatal("Get did not reuse the pooled entry")
	}
	want := NewEntry("http://s/new", 2048, trace.Graphics, 20, 7)
	if *got != *want {
		t.Fatalf("recycled entry %+v differs from fresh entry %+v", got, want)
	}
	if p.Len() != 0 {
		t.Fatalf("pool len after Get = %d, want 0", p.Len())
	}
	if fresh := p.Get("http://s/fresh", 1, trace.Text, 1, 1); fresh == nil || fresh == e {
		t.Fatal("empty pool did not allocate a fresh entry")
	}
}

// TestEntryPoolRelease checks that a released pool is empty and that
// entries carved after a release, from whatever blocks it returned, are
// in the NewEntry state however their last user left them.
func TestEntryPoolRelease(t *testing.T) {
	var p EntryPool
	var prev *Entry
	for i := 0; i < 2*slabSize; i++ {
		e := p.Get("http://s/old", int64(i+1), trace.Audio, 10, uint64(i))
		e.ID, e.NRef, e.Latency, e.Expires, e.DayATime = 3, 9, 2.5, 99, 4
		e.prio, e.heapIdx, e.bucket, e.prev, e.next = 1.5, 7, 2, prev, prev
		prev = e
		if i%3 == 0 {
			p.Put(e)
		}
	}
	p.Release()
	if p.Len() != 0 || len(p.slab) != 0 || len(p.slabs) != 0 {
		t.Fatalf("released pool not empty: %d free, %d slab, %d blocks", p.Len(), len(p.slab), len(p.slabs))
	}
	var q EntryPool
	want := NewEntry("http://s/new", 2048, trace.Graphics, 20, 7)
	for i := 0; i < 2*slabSize; i++ {
		if got := q.Get("http://s/new", 2048, trace.Graphics, 20, 7); *got != *want {
			t.Fatalf("entry %d after Release = %+v, want %+v", i, got, want)
		}
	}
}
