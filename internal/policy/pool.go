package policy

import (
	"sync"

	"webcache/internal/trace"
)

// EntryPool recycles Entries between an eviction and a later insert,
// removing the per-insert allocation from the replay hot loop: once a
// finite cache reaches capacity, every miss both evicts and inserts,
// so the pool reaches a steady state where no Entry is ever allocated.
// Release extends the reuse across replays: the slabs go back to a
// process-wide pool from which later EntryPools carve.
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

// slabPool holds the blocks of released EntryPools. Their entries
// still carry the last replay's field values; Get resets each one
// before handing it out.
var slabPool sync.Pool

// Put recycles e for a future Get.
func (p *EntryPool) Put(e *Entry) {
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
		s, _ := slabPool.Get().(*[slabSize]Entry)
		if s == nil {
			s = new([slabSize]Entry)
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

// Release returns every block p carved entries from to the process-wide
// pool and leaves p empty. Every entry p ever handed out becomes
// invalid: neither the caller nor any policy still holding one may use
// it again.
func (p *EntryPool) Release() {
	for _, s := range p.slabs {
		slabPool.Put(s)
	}
	*p = EntryPool{}
}

// Reserver is implemented by policies whose internal structures can be
// pre-sized from an expected resident-document count. The cache passes
// its size hint through at construction; the hint is purely a
// performance lever and never affects removal decisions.
type Reserver interface {
	Reserve(n int)
}
