package policy

import (
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

// TestEntrySize bounds the size of an Entry, which the pool's slabs
// and every heap sift carry, at 144 bytes on 64-bit platforms.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got > 144 {
		t.Fatalf("unsafe.Sizeof(Entry{}) = %d, want at most 144", got)
	}
}
