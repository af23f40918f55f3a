package pqueue

import (
	"sort"
	"testing"

	"webcache/internal/rng"
)

// item is a minimal heap element for testing.
type item struct {
	key int
	idx int
}

func (it *item) HeapIndex() int     { return it.idx }
func (it *item) SetHeapIndex(i int) { it.idx = i }

func newHeap() *Heap[*item] {
	return New(func(a, b *item) bool { return a.key < b.key })
}

func TestPushPopSorted(t *testing.T) {
	h := newHeap()
	r := rng.New(1)
	var want []int
	for i := 0; i < 500; i++ {
		k := r.Intn(1000)
		want = append(want, k)
		h.Push(&item{key: k, idx: -1})
	}
	sort.Ints(want)
	for i, w := range want {
		got, ok := h.Pop()
		if !ok {
			t.Fatalf("pop %d: heap empty early", i)
		}
		if got.key != w {
			t.Fatalf("pop %d: got %d, want %d", i, got.key, w)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("pop on empty heap succeeded")
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	h := newHeap()
	h.Push(&item{key: 5, idx: -1})
	h.Push(&item{key: 3, idx: -1})
	p1, ok := h.Peek()
	if !ok || p1.key != 3 {
		t.Fatalf("peek = %v, %v", p1, ok)
	}
	if h.Len() != 2 {
		t.Fatalf("peek changed length to %d", h.Len())
	}
}

func TestFixAfterKeyChange(t *testing.T) {
	h := newHeap()
	items := make([]*item, 10)
	for i := range items {
		items[i] = &item{key: i, idx: -1}
		h.Push(items[i])
	}
	items[9].key = -1 // make the largest the smallest
	if !h.Fix(items[9]) {
		t.Fatal("Fix did not find the item")
	}
	got, _ := h.Pop()
	if got != items[9] {
		t.Fatalf("after Fix, head key = %d, want -1", got.key)
	}
	items[0].key = 100 // push the old smallest to the back
	if !h.Fix(items[0]) {
		t.Fatal("Fix did not find item 0")
	}
	var last *item
	for {
		it, ok := h.Pop()
		if !ok {
			break
		}
		last = it
	}
	if last != items[0] {
		t.Fatalf("largest-keyed item not popped last (got key %d)", last.key)
	}
}

func TestRemoveMiddle(t *testing.T) {
	h := newHeap()
	items := make([]*item, 20)
	for i := range items {
		items[i] = &item{key: i, idx: -1}
		h.Push(items[i])
	}
	if !h.Remove(items[10]) {
		t.Fatal("Remove returned false for a present item")
	}
	if items[10].idx != -1 {
		t.Fatalf("removed item keeps heap index %d", items[10].idx)
	}
	if h.Remove(items[10]) {
		t.Fatal("Remove succeeded twice for the same item")
	}
	seen := 0
	for {
		it, ok := h.Pop()
		if !ok {
			break
		}
		if it == items[10] {
			t.Fatal("removed item still popped")
		}
		seen++
	}
	if seen != 19 {
		t.Fatalf("popped %d items, want 19", seen)
	}
}

func TestRemoveForeignItem(t *testing.T) {
	h := newHeap()
	h.Push(&item{key: 1, idx: -1})
	foreign := &item{key: 2, idx: 0} // claims index 0 but is not in the heap
	if h.Remove(foreign) {
		t.Fatal("Remove succeeded for an item not on the heap")
	}
	if h.Len() != 1 {
		t.Fatalf("foreign remove disturbed heap: len %d", h.Len())
	}
}

func TestClear(t *testing.T) {
	h := newHeap()
	its := []*item{{key: 1, idx: -1}, {key: 2, idx: -1}}
	for _, it := range its {
		h.Push(it)
	}
	h.Clear()
	if h.Len() != 0 {
		t.Fatalf("Clear left %d items", h.Len())
	}
	for _, it := range its {
		if it.idx != -1 {
			t.Fatalf("Clear left index %d on item", it.idx)
		}
	}
}

// TestRandomOpsAgainstReference drives the heap with random operations
// and cross-checks every result against a naive reference.
func TestRandomOpsAgainstReference(t *testing.T) {
	h := newHeap()
	r := rng.New(42)
	var ref []*item

	refMin := func() *item {
		var m *item
		for _, it := range ref {
			if m == nil || it.key < m.key || (it.key == m.key && it.idx < m.idx) {
				// Tie order between equal keys is unspecified; only
				// compare keys below.
				if m == nil || it.key < m.key {
					m = it
				}
			}
		}
		return m
	}
	refRemove := func(target *item) {
		for i, it := range ref {
			if it == target {
				ref = append(ref[:i], ref[i+1:]...)
				return
			}
		}
		t.Fatal("reference remove: item missing")
	}

	for op := 0; op < 20000; op++ {
		switch r.Intn(4) {
		case 0: // push
			it := &item{key: r.Intn(100), idx: -1}
			h.Push(it)
			ref = append(ref, it)
		case 1: // pop
			got, ok := h.Pop()
			if !ok {
				if len(ref) != 0 {
					t.Fatalf("op %d: heap empty, reference has %d", op, len(ref))
				}
				continue
			}
			if m := refMin(); got.key != m.key {
				t.Fatalf("op %d: popped key %d, reference min %d", op, got.key, m.key)
			}
			refRemove(got)
		case 2: // fix a random item
			if len(ref) == 0 {
				continue
			}
			it := ref[r.Intn(len(ref))]
			it.key = r.Intn(100)
			if !h.Fix(it) {
				t.Fatalf("op %d: Fix lost an item", op)
			}
		case 3: // remove a random item
			if len(ref) == 0 {
				continue
			}
			it := ref[r.Intn(len(ref))]
			if !h.Remove(it) {
				t.Fatalf("op %d: Remove lost an item", op)
			}
			refRemove(it)
		}
		if h.Len() != len(ref) {
			t.Fatalf("op %d: heap len %d, reference %d", op, h.Len(), len(ref))
		}
	}
}

func TestFixForeignItem(t *testing.T) {
	h := newHeap()
	h.Push(&item{key: 1, idx: -1})
	foreign := &item{key: 2, idx: 0} // claims index 0 but is not in the heap
	if h.Fix(foreign) {
		t.Fatal("Fix succeeded for an item not on the heap")
	}
	if got, _ := h.Peek(); got.key != 1 {
		t.Fatalf("foreign Fix disturbed heap: head key %d", got.key)
	}
}
