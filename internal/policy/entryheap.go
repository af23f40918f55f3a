package policy

// entryHeap is the indexed binary min-heap the heap-based policies keep
// their entries on. It has pqueue.Heap's operation semantics and its
// hole-based sifts, but is concrete over *Entry: the index bookkeeping
// compiles to direct e.heapIdx loads and stores instead of method calls
// through the generics dictionary, which matters in the sift loops at
// the bottom of every replay.
//
// Removing the root — every eviction — is a bottom-up pop (popRoot), so
// its comparison sequence differs from pqueue.Heap's. The victim order
// does not: the root is the minimum of a strict total order, whatever
// the internal layout.
type entryHeap struct {
	items []*Entry
	less  func(a, b *Entry) bool
}

func newEntryHeap(less func(a, b *Entry) bool) *entryHeap {
	return &entryHeap{less: less}
}

// Grow pre-sizes the backing array to hold at least n entries.
func (h *entryHeap) Grow(n int) {
	if cap(h.items) < n {
		items := make([]*Entry, len(h.items), n)
		copy(items, h.items)
		h.items = items
	}
}

func (h *entryHeap) Len() int { return len(h.items) }

func (h *entryHeap) Push(e *Entry) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	e.heapIdx = i
	h.up(i)
}

// Peek returns the head (next victim) without removing it.
func (h *entryHeap) Peek() (*Entry, bool) {
	if len(h.items) == 0 {
		return nil, false
	}
	return h.items[0], true
}

// Remove deletes e from the heap using its tracked index; it reports
// false (and does nothing) when e is not on this heap.
func (h *entryHeap) Remove(e *Entry) bool {
	i := e.heapIdx
	if i < 0 || i >= len(h.items) || h.items[i] != e {
		return false
	}
	h.removeAt(i)
	return true
}

// Fix re-establishes heap order after e's keys changed.
func (h *entryHeap) Fix(e *Entry) bool {
	i := e.heapIdx
	if i < 0 || i >= len(h.items) || h.items[i] != e {
		return false
	}
	if !h.down(i) {
		h.up(i)
	}
	return true
}

func (h *entryHeap) removeAt(i int) {
	if i == 0 {
		h.popRoot()
		return
	}
	n := len(h.items) - 1
	e := h.items[i]
	if i != n {
		h.items[i] = h.items[n]
		h.items[i].heapIdx = i
	}
	h.items[n] = nil
	h.items = h.items[:n]
	e.heapIdx = -1
	if i < n {
		if !h.down(i) {
			h.up(i)
		}
	}
}

// popRoot removes the root bottom-up. The hole walks from the root to a
// leaf along the smaller child, one comparison per level instead of the
// two a top-down sift of the former last element spends; that element
// then fills the leaf hole and sifts up, which from the bottom level is
// usually zero or one step.
func (h *entryHeap) popRoot() {
	n := len(h.items) - 1
	h.items[0].heapIdx = -1
	last := h.items[n]
	h.items[n] = nil
	h.items = h.items[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.items[c+1], h.items[c]) {
			c++
		}
		h.items[i] = h.items[c]
		h.items[i].heapIdx = i
		i = c
	}
	h.items[i] = last
	last.heapIdx = i
	h.up(i)
}

func (h *entryHeap) up(i int) {
	e := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(e, h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		h.items[i].heapIdx = i
		i = parent
	}
	h.items[i] = e
	e.heapIdx = i
}

func (h *entryHeap) down(i int) bool {
	start := i
	e := h.items[i]
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
		if !h.less(h.items[smallest], e) {
			break
		}
		h.items[i] = h.items[smallest]
		h.items[i].heapIdx = i
		i = smallest
	}
	if i == start {
		return false
	}
	h.items[i] = e
	e.heapIdx = i
	return true
}
