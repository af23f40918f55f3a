package policy

import (
	"slices"
	"sync"
	"testing"
	"unsafe"

	"webcache/internal/trace"
)

// TestEntryPoolRecycles checks that Get reuses a Put entry and resets it
// to the NewEntry state.
func TestEntryPoolRecycles(t *testing.T) {
	var p EntryPool
	e := NewEntry("http://s/old", 100, trace.Text, 10, 1)
	e.NRef = 9
	e.Latency = 2.5
	e.Expires = 99
	e.key = [maxKeys]uint64{1, 2, 3}
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
		e.ID, e.NRef, e.Latency, e.Expires = 3, 9, 2.5, 99
		e.key, e.heapIdx, e.bucket, e.prev, e.next = [maxKeys]uint64{4, 5, 6}, 7, 2, prev, prev
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

// TestEntryArrays checks the capacity classes: GetEntries returns n
// nil slots at a power-of-two capacity, an array put back dirty comes
// out all nil, and a request for a larger class never gets it.
func TestEntryArrays(t *testing.T) {
	ResetFreeLists()
	defer ResetFreeLists()
	for _, n := range []int{0, 1, 8, 9, 100, 1024, 1025} {
		s := GetEntries(n)
		if len(s) != n || cap(s) < n || cap(s)&(cap(s)-1) != 0 {
			t.Fatalf("GetEntries(%d): len %d cap %d", n, len(s), cap(s))
		}
	}
	e := NewEntry("http://s/x", 1, trace.Text, 0, 0)
	s := GetEntries(100)
	for i := range s {
		s[i] = e
	}
	s = append(s, e)
	PutEntries(s)
	if got := GetEntries(129); cap(got) == cap(s) {
		t.Fatal("a class-7 array served a request for 129 slots")
	}
	got := GetEntries(65)
	if cap(got) != cap(s) {
		t.Fatalf("GetEntries(65) has capacity %d, want the released array's %d", cap(got), cap(s))
	}
	for i, x := range got[:cap(got)] {
		if x != nil {
			t.Fatalf("slot %d of a reused array is not nil", i)
		}
	}
}

// TestFreeListsConcurrent drains a size-bucketed, a heap-backed and a
// GD-Size policy on several goroutines at once, each releasing its
// arrays and slabs for the others, and requires every drain to match
// one run alone. Under the race detector it also catches two
// goroutines handed the same buffer.
func TestFreeListsConcurrent(t *testing.T) {
	drain := func() []int64 {
		var victims []int64
		for _, p := range []Policy{NewSorted([]Key{KeySize, KeyNRef}, 0), NewLFU(), NewGDS1()} {
			var pool EntryPool
			for i := 0; i < 700; i++ {
				e := pool.Get("http://s/x", int64(1+i*7919%5000), trace.Text, int64(i), uint64(i))
				p.Add(e)
				if i%5 == 0 {
					p.Touch(e)
				}
			}
			for p.Len() > 0 {
				e := p.Victim(0)
				p.Remove(e)
				victims = append(victims, e.Size)
				pool.Put(e)
			}
			Release(p)
			pool.Release()
			table := GetEntries(3000)
			for _, x := range table {
				if x != nil {
					t.Error("GetEntries returned a slot that is not nil")
					break
				}
			}
			PutEntries(table)
		}
		return victims
	}
	want := drain()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				if got := drain(); !slices.Equal(got, want) {
					t.Error("a drain on shared free lists differs from one alone")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEntrySize bounds the size of an Entry, which the pool's slabs
// and every heap sift carry, at 144 bytes on 64-bit platforms.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got > 144 {
		t.Fatalf("unsafe.Sizeof(Entry{}) = %d, want at most 144", got)
	}
}
