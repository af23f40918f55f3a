// Package pqueue implements a generic indexed binary min-heap.
//
// The cache removal policies keep every cached document on a heap ordered
// by the policy's sorting keys; the document at the head of the heap is
// the next removal victim (§1.2 of the paper). Unlike container/heap this
// heap tracks each element's position itself, so a policy can re-sift a
// document in O(log n) when one of its keys changes (e.g. ATIME or NREF
// on every access) without the caller maintaining index bookkeeping.
package pqueue

// Item is implemented by values stored on a Heap. The heap calls
// SetHeapIndex whenever the item moves and uses HeapIndex to locate it for
// Fix and Remove. Items must not be shared between heaps.
type Item interface {
	HeapIndex() int
	SetHeapIndex(int)
}

// Elem constrains heap elements to items with comparable identity (in
// practice pointer types), so Remove and Fix can verify membership
// with a direct == against the tracked slot instead of boxing both
// sides through the empty interface.
type Elem interface {
	comparable
	Item
}

// Heap is an indexed binary min-heap ordered by less. The zero value is
// not usable; construct with New.
type Heap[T Elem] struct {
	items []T
	less  func(a, b T) bool
}

// New returns an empty heap ordered by less (less(a, b) means a is closer
// to the head, i.e. removed sooner).
func New[T Elem](less func(a, b T) bool) *Heap[T] {
	return &Heap[T]{less: less}
}

// Grow pre-sizes the backing array to hold at least n items without
// further re-allocation, for callers with a capacity hint. It never
// shrinks and has no effect on heap order.
func (h *Heap[T]) Grow(n int) {
	if cap(h.items) < n {
		items := make([]T, len(h.items), n)
		copy(items, h.items)
		h.items = items
	}
}

// Len reports the number of items on the heap.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push adds item to the heap.
func (h *Heap[T]) Push(item T) {
	h.items = append(h.items, item)
	i := len(h.items) - 1
	item.SetHeapIndex(i)
	h.up(i)
}

// Peek returns the head (next victim) without removing it. The boolean is
// false when the heap is empty.
func (h *Heap[T]) Peek() (T, bool) {
	var zero T
	if len(h.items) == 0 {
		return zero, false
	}
	return h.items[0], true
}

// Pop removes and returns the head. The boolean is false when empty.
func (h *Heap[T]) Pop() (T, bool) {
	var zero T
	if len(h.items) == 0 {
		return zero, false
	}
	head := h.items[0]
	h.removeAt(0)
	return head, true
}

// Remove deletes item from the heap using its tracked index. It is a
// no-op (returning false) if the item is not on this heap.
func (h *Heap[T]) Remove(item T) bool {
	i := item.HeapIndex()
	if i < 0 || i >= len(h.items) || h.items[i] != item {
		return false
	}
	h.removeAt(i)
	return true
}

// Fix re-establishes heap order after item's keys changed. It reports
// whether the item was found on the heap.
func (h *Heap[T]) Fix(item T) bool {
	i := item.HeapIndex()
	if i < 0 || i >= len(h.items) || h.items[i] != item {
		return false
	}
	if !h.down(i) {
		h.up(i)
	}
	return true
}

// Items returns the heap's backing slice in heap order (not sorted).
// Callers must not mutate it; it is exposed for policies that need to
// scan all entries (e.g. LRU-MIN's threshold search).
func (h *Heap[T]) Items() []T { return h.items }

// Clear removes all items.
func (h *Heap[T]) Clear() {
	for _, it := range h.items {
		it.SetHeapIndex(-1)
	}
	h.items = h.items[:0]
}

func (h *Heap[T]) removeAt(i int) {
	n := len(h.items) - 1
	item := h.items[i]
	if i != n {
		h.items[i] = h.items[n]
		h.items[i].SetHeapIndex(i)
	}
	var zero T
	h.items[n] = zero
	h.items = h.items[:n]
	item.SetHeapIndex(-1)
	if i < n {
		if !h.down(i) {
			h.up(i)
		}
	}
}

// up sifts i toward the root. The moving item is held aside while its
// ancestors shift down into the hole, then written once at its final
// position — one write and one SetHeapIndex per level instead of two.
func (h *Heap[T]) up(i int) {
	item := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(item, h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		h.items[i].SetHeapIndex(i)
		i = parent
	}
	h.items[i] = item
	item.SetHeapIndex(i)
}

// down sifts i toward the leaves with the same hole scheme as up; it
// reports whether the item moved.
func (h *Heap[T]) down(i int) bool {
	start := i
	item := h.items[i]
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			smallest = right
		}
		if !h.less(h.items[smallest], item) {
			break
		}
		h.items[i] = h.items[smallest]
		h.items[i].SetHeapIndex(i)
		i = smallest
	}
	if i == start {
		return false
	}
	h.items[i] = item
	item.SetHeapIndex(i)
	return true
}
