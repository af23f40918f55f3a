package policy

import "container/heap"

// ExpiredFirst wraps another policy with the Harvest cache's behaviour
// cited in §5 open problem 4 of the paper: "the Harvest cache tries to
// remove expired documents first". Victim selection prefers the cached
// document whose expiration time is furthest in the past; only when no
// document has expired does the inner policy choose.
//
// Expiration times come from Entry.Expires (Unix seconds; zero means
// no expiry). The cache drives the clock through SetNow.
type ExpiredFirst struct {
	inner Policy
	now   int64
	heap  expiryHeap
	nodes map[*Entry]*expiryNode
}

// expiryNode gives each entry a second heap position independent of the
// inner policy's.
type expiryNode struct {
	e   *Entry
	idx int
}

// expiryHeap is a container/heap of nodes ordered by Expires, then the
// universal Rand and URL tiebreak: a strict total order, so the head
// is the same whatever the heap's layout.
type expiryHeap []*expiryNode

func (h expiryHeap) Len() int { return len(h) }

func (h expiryHeap) Less(i, j int) bool {
	a, b := h[i].e, h[j].e
	if a.Expires != b.Expires {
		return a.Expires < b.Expires
	}
	if a.Rand != b.Rand {
		return a.Rand < b.Rand
	}
	return a.URL < b.URL
}

func (h expiryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *expiryHeap) Push(x any) {
	n := x.(*expiryNode)
	n.idx = len(*h)
	*h = append(*h, n)
}

func (h *expiryHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return n
}

// NewExpiredFirst wraps inner.
func NewExpiredFirst(inner Policy) *ExpiredFirst {
	return &ExpiredFirst{inner: inner, nodes: make(map[*Entry]*expiryNode)}
}

// Name implements Policy.
func (p *ExpiredFirst) Name() string { return "ExpiredFirst(" + p.inner.Name() + ")" }

// SetNow advances the policy's clock (called by the cache per request).
func (p *ExpiredFirst) SetNow(now int64) {
	p.now = now
	if inner, ok := p.inner.(interface{ SetNow(int64) }); ok {
		inner.SetNow(now)
	}
}

// Add implements Policy.
func (p *ExpiredFirst) Add(e *Entry) {
	p.inner.Add(e)
	if e.Expires > 0 {
		n := &expiryNode{e: e}
		p.nodes[e] = n
		heap.Push(&p.heap, n)
	}
}

// Touch implements Policy. A refreshed entry may carry a new expiry.
func (p *ExpiredFirst) Touch(e *Entry) {
	p.inner.Touch(e)
	if n, ok := p.nodes[e]; ok {
		heap.Fix(&p.heap, n.idx)
	} else if e.Expires > 0 {
		n := &expiryNode{e: e}
		p.nodes[e] = n
		heap.Push(&p.heap, n)
	}
}

// Remove implements Policy.
func (p *ExpiredFirst) Remove(e *Entry) {
	p.inner.Remove(e)
	if n, ok := p.nodes[e]; ok {
		heap.Remove(&p.heap, n.idx)
		delete(p.nodes, e)
	}
}

// Victim implements Policy: the longest-expired document if any has
// expired, otherwise the inner policy's choice.
func (p *ExpiredFirst) Victim(incoming int64) *Entry {
	if len(p.heap) > 0 && p.heap[0].e.Expires <= p.now {
		return p.heap[0].e
	}
	return p.inner.Victim(incoming)
}

// Len implements Policy.
func (p *ExpiredFirst) Len() int { return p.inner.Len() }

// ExpiredCount reports how many tracked documents are currently expired
// (an O(n) scan; intended for tests and reports, not hot paths).
func (p *ExpiredFirst) ExpiredCount() int {
	n := 0
	for _, node := range p.nodes {
		if node.e.Expires <= p.now {
			n++
		}
	}
	return n
}
