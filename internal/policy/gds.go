package policy

// GreedyDualSize implements GreedyDual-Size (Cao & Irani 1997). It
// POST-DATES the paper and is included only as a flagged baseline showing
// where size-aware removal went next: GD-Size(1) generalizes the paper's
// SIZE key by aging it with an inflation value L, so recency information
// is blended in rather than ignored.
//
// Each cached document has priority H = L + cost/size; on a hit H is
// recomputed with the current L; the victim is the minimum-H document,
// and L rises to the evicted H. With cost = 1 ("GD-Size(1)") the policy
// optimizes hit rate; with cost = size ("GD-Size(size)", H = L + 1) it
// degenerates toward LRU and favors byte hit rate.
//
// The priority H is kept in the entry's removal key, key[0], through
// floatWord, so the heap orders on lessKey like every sorted policy: a
// NaN priority (possible only from a NaN cost) is removed last.
type GreedyDualSize struct {
	heap entryHeap
	l    float64
	cost func(e *Entry) float64
	name string
}

// NewGDS1 returns GD-Size with uniform miss cost 1 (maximizes hit rate).
func NewGDS1() *GreedyDualSize {
	return newGDS("GD-Size(1)", func(*Entry) float64 { return 1 })
}

// NewGDSBytes returns GD-Size with miss cost equal to document size
// (every document's priority is L+1; the policy becomes LRU-like and
// favors weighted hit rate).
func NewGDSBytes() *GreedyDualSize {
	return newGDS("GD-Size(size)", func(e *Entry) float64 { return float64(e.Size) })
}

func newGDS(name string, cost func(e *Entry) float64) *GreedyDualSize {
	return &GreedyDualSize{cost: cost, name: name}
}

// Name implements Policy.
func (g *GreedyDualSize) Name() string { return g.name }

func (g *GreedyDualSize) priority(e *Entry) float64 {
	size := float64(e.Size)
	if size < 1 {
		size = 1
	}
	return g.l + g.cost(e)/size
}

// Add implements Policy.
func (g *GreedyDualSize) Add(e *Entry) {
	e.key[0] = floatWord(g.priority(e))
	g.heap.Push(e)
}

// Touch implements Policy: refresh the priority with the current L.
func (g *GreedyDualSize) Touch(e *Entry) {
	e.key[0] = floatWord(g.priority(e))
	g.heap.Fix(e)
}

// Remove implements Policy. When the removed entry is the current
// minimum (an eviction), L inflates to its priority, aging the rest of
// the cache relative to future insertions.
func (g *GreedyDualSize) Remove(e *Entry) {
	if head, ok := g.heap.Peek(); ok && head == e {
		if h := wordFloat(e.key[0]); h > g.l {
			g.l = h
		}
	}
	g.heap.Remove(e)
}

// Victim implements Policy.
func (g *GreedyDualSize) Victim(int64) *Entry {
	head, ok := g.heap.Peek()
	if !ok {
		return nil
	}
	return head
}

// Len implements Policy.
func (g *GreedyDualSize) Len() int { return g.heap.Len() }

// Reserve implements Reserver.
func (g *GreedyDualSize) Reserve(n int) { g.heap.Grow(n) }

func (g *GreedyDualSize) release() { g.heap.release() }

// NewGDSLatency returns GD-Size with miss cost equal to the document's
// estimated refetch latency (H = L + latency/size): the principled way
// to optimize the paper's third criterion, blending the §5 refetch-
// latency idea with popularity aging instead of sorting on latency
// alone.
func NewGDSLatency() *GreedyDualSize {
	return newGDS("GD-Latency", func(e *Entry) float64 { return e.Latency })
}
