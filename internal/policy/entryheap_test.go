package policy

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// heapOracle drives an entryHeap and a slice of the same live entries,
// kept sorted with the heap's own comparator, through one op script.
// The slice's head is what the heap's root and every popped victim must
// be.
type heapOracle struct {
	t    *testing.T
	h    *entryHeap
	live []*Entry // sorted by heapOracleLess
	next int
}

// heapOracleLess is a strict total order with a deliberately small key
// domain, so most comparisons fall through to the URL tiebreak.
func heapOracleLess(a, b *Entry) bool {
	if a.NRef != b.NRef {
		return a.NRef < b.NRef
	}
	return a.URL < b.URL
}

func (o *heapOracle) insert(e *Entry) {
	i := sort.Search(len(o.live), func(i int) bool { return heapOracleLess(e, o.live[i]) })
	o.live = slices.Insert(o.live, i, e)
}

func (o *heapOracle) removed(e *Entry) {
	if e.heapIdx != -1 {
		o.t.Fatalf("removed %s still has heapIdx %d", e.URL, e.heapIdx)
	}
}

// apply runs one op, chosen by op%8 so the heap grows on average: 0–3
// push, 4–5 change a key and Fix, 6 Remove an arbitrary entry, 7 remove
// the root (the eviction path). v picks the entry and the new key.
func (o *heapOracle) apply(op, v byte) {
	key := int64(v >> 5)
	if op%8 < 4 || len(o.live) == 0 {
		e := NewEntry(fmt.Sprintf("u%04d", o.next), 1, 0, 0, 0)
		o.next++
		e.NRef = key
		o.h.Push(e)
		o.insert(e)
		return
	}
	i := int(v) % len(o.live)
	switch op % 8 {
	case 4, 5:
		e := o.live[i]
		o.live = slices.Delete(o.live, i, i+1)
		e.NRef = key
		o.insert(e)
		if !o.h.Fix(e) {
			o.t.Fatalf("Fix(%s) reported not on heap", e.URL)
		}
	case 6:
		e := o.live[i]
		o.live = slices.Delete(o.live, i, i+1)
		if !o.h.Remove(e) {
			o.t.Fatalf("Remove(%s) reported not on heap", e.URL)
		}
		o.removed(e)
	case 7:
		want := o.live[0]
		o.live = o.live[1:]
		if got, _ := o.h.Peek(); got != want {
			o.t.Fatalf("root %s, oracle minimum %s", got.URL, want.URL)
		}
		o.h.Remove(want)
		o.removed(want)
	}
}

// check verifies the heap against the oracle: same length, root equal to
// the oracle's head, every heapIdx pointing at its own slot, and the
// heap property at every node.
func (o *heapOracle) check() {
	items := o.h.items
	if len(items) != len(o.live) {
		o.t.Fatalf("heap holds %d entries, oracle %d", len(items), len(o.live))
	}
	for i, e := range items {
		if e.heapIdx != i {
			o.t.Fatalf("%s at slot %d has heapIdx %d", e.URL, i, e.heapIdx)
		}
		if i > 0 && heapOracleLess(e, items[(i-1)/2]) {
			o.t.Fatalf("%s at slot %d sorts before its parent %s", e.URL, i, items[(i-1)/2].URL)
		}
	}
	if len(items) > 0 && items[0] != o.live[0] {
		o.t.Fatalf("root %s, oracle minimum %s", items[0].URL, o.live[0].URL)
	}
}

// drain pops the root until empty; each pop must be the oracle's next
// entry.
func (o *heapOracle) drain() {
	for len(o.live) > 0 {
		o.apply(7, 0)
		o.check()
	}
}

// FuzzEntryHeap checks entryHeap itself, the oracle every structural
// backend is tested against: a seeded random Push/Fix/Remove/remove-root
// script of (op, value) byte pairs must keep the heap consistent with a
// slice sorted by the same comparator.
func FuzzEntryHeap(f *testing.F) {
	f.Add(int64(1), uint16(32))
	f.Add(int64(2), uint16(200))
	f.Add(int64(42), uint16(511))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		script := make([]byte, 2*(int(n%512)+1))
		rand.New(rand.NewSource(seed)).Read(script)
		o := &heapOracle{t: t, h: newEntryHeap(heapOracleLess)}
		for i := 0; i < len(script); i += 2 {
			o.apply(script[i], script[i+1])
			o.check()
		}
		o.drain()
	})
}
