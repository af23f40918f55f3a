package policy

import (
	"math/bits"
	"sync"

	"webcache/internal/trace"
)

// EntryPool recycles Entries between an eviction and a later insert,
// removing the per-insert allocation from the replay hot loop: once a
// finite cache reaches capacity, every miss both evicts and inserts,
// so the pool reaches a steady state where no Entry is ever allocated.
// Release extends the reuse across replays: the slabs and the free
// slice go back to process-wide free lists from which later
// EntryPools carve.
//
// The zero value is ready to use. Entries handed to Put must already
// be detached from every policy (Policy.Remove has returned) and must
// not be retained by the caller; Get returns them re-initialized field
// for field exactly as NewEntry would, so recycling is invisible to
// the simulation.
type EntryPool struct {
	free []*Entry
	// slab is the tail of the current allocation block: fresh entries
	// are carved from it in address order, so the resident population —
	// which the heap sifts chase through pointers — stays contiguous
	// instead of scattering across individual allocations.
	slab []Entry
	// slabs lists every block slab was cut from, for Release.
	slabs []*[slabSize]Entry
}

// slabSize is the number of entries allocated per block (~16 KiB).
const slabSize = 128

// freeList is a process-wide free list of buffers: a mutex and a
// slice. Unlike a sync.Pool the collector never empties it, so a
// sweep's replays hand their buffers on however often it runs; it
// holds at most what replays live at the same time released.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

func (l *freeList[T]) get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.items); n > 0 {
		x, ok = l.items[n-1], true
		clear(l.items[n-1:])
		l.items = l.items[:n-1]
	}
	return x, ok
}

func (l *freeList[T]) put(x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.items = append(l.items, x)
}

// slabs holds the blocks of released EntryPools. Their entries still
// carry the last replay's field values; Get resets each one before
// handing it out.
var slabs freeList[*[slabSize]Entry]

// slabLists holds the emptied slab lists of released EntryPools.
var slabLists freeList[[]*[slabSize]Entry]

// entryArrays holds released []*Entry arrays, nil up to capacity, by
// class: class k holds arrays of capacity at least 1<<k. Heap arrays,
// EntryPool free slices and interned caches' ID tables all draw from
// it.
var entryArrays [bits.UintSize]freeList[[]*Entry]

// GetEntries returns n nil entries at a capacity of n rounded up to a
// power of two, in a released array of that class when there is one.
func GetEntries(n int) []*Entry {
	k := bits.Len(uint(max(n, 1) - 1))
	if s, ok := entryArrays[k].get(); ok {
		return s[:n]
	}
	return make([]*Entry, n, 1<<k)
}

// PutEntries clears s up to its capacity and puts it on its class's
// free list; s must not be used afterwards.
func PutEntries(s []*Entry) {
	if cap(s) > 0 {
		clear(s[:cap(s)])
		entryArrays[bits.Len(uint(cap(s)))-1].put(s[:0])
	}
}

// growEntries returns s with room for at least n entries, moved to an
// array from GetEntries, and its own put back, when it has less.
func growEntries(s []*Entry, n int) []*Entry {
	if cap(s) >= n {
		return s
	}
	t := append(GetEntries(n)[:0], s...)
	PutEntries(s)
	return t
}

// FreeListLens reports how many buffers the free lists hold: the entry
// slabs and slab lists first, then each class of entry arrays.
func FreeListLens() []int {
	lens := []int{len(slabs.items), len(slabLists.items)}
	for i := range entryArrays {
		lens = append(lens, len(entryArrays[i].items))
	}
	return lens
}

// ResetFreeLists empties the free lists, so that the buffers replays
// ask for next are allocated afresh. Neither it nor FreeListLens may
// run while a replay does.
func ResetFreeLists() {
	slabs.items, slabLists.items = nil, nil
	for i := range entryArrays {
		entryArrays[i].items = nil
	}
}

// Put recycles e for a future Get.
func (p *EntryPool) Put(e *Entry) {
	if len(p.free) == cap(p.free) {
		p.free = growEntries(p.free, len(p.free)+1)
	}
	p.free = append(p.free, e)
}

// Get returns an entry for a document inserted at time now, reusing a
// recycled entry when one is available and carving one from the
// current slab otherwise.
func (p *EntryPool) Get(url string, size int64, typ trace.DocType, now int64, rand uint64) *Entry {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		e.init(url, size, typ, now, rand)
		return e
	}
	if len(p.slab) == 0 {
		s, ok := slabs.get()
		if !ok {
			s = new([slabSize]Entry)
		}
		if p.slabs == nil {
			p.slabs, _ = slabLists.get()
		}
		p.slabs = append(p.slabs, s)
		p.slab = s[:]
	}
	e := &p.slab[0]
	p.slab = p.slab[1:]
	e.init(url, size, typ, now, rand)
	return e
}

// Len reports how many entries are waiting for reuse.
func (p *EntryPool) Len() int { return len(p.free) }

// Release returns every block p carved entries from, and its free
// slice, to the free lists and leaves p empty. Every entry p ever
// handed out becomes invalid: neither the caller nor any policy still
// holding one may use it again.
func (p *EntryPool) Release() {
	for _, s := range p.slabs {
		slabs.put(s)
	}
	if cap(p.slabs) > 0 {
		clear(p.slabs)
		slabLists.put(p.slabs[:0])
	}
	PutEntries(p.free)
	*p = EntryPool{}
}

// Reserver is implemented by policies whose internal structures can be
// pre-sized from an expected resident-document count. The cache passes
// its size hint through at construction; the hint is purely a
// performance lever and never affects removal decisions.
type Reserver interface {
	Reserve(n int)
}

// releaser is implemented by policies whose arrays go back on the free
// lists once the policy is done with.
type releaser interface{ release() }

// Release hands p's arrays to the policies built after it. Afterwards p
// is invalid and must not be used. A policy with nothing to hand back
// ignores it.
func Release(p Policy) {
	if r, ok := p.(releaser); ok {
		r.release()
	}
}
