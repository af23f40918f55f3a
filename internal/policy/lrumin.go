package policy

import "fmt"

// LRUMin implements the LRU-MIN policy of Abrams et al. 1995 exactly as
// §1.2 of the paper describes it:
//
//	To make room for an incoming document of size S, first consider the
//	cached documents with size >= S; if any exist, remove the least
//	recently used of them. Otherwise consider documents with size >= S/2,
//	then S/4, and so on, applying LRU within the first non-empty
//	threshold class.
//
// Unlike the ⌊log2 SIZE⌋/ATIME member of the taxonomy, LRU-MIN's
// thresholds are relative to the *incoming* document size, so it is not a
// static sort; the paper notes the two behave similarly but are not
// identical, which the benchmarks in this repository confirm.
//
// The implementation keeps one LRU list per ⌊log2 size⌋ class, so a
// victim search touches at most one list scan (the boundary class) plus
// one candidate per higher class.
type LRUMin struct {
	buckets [maxSizeClass + 1]lruList
	count   int
}

// maxSizeClass covers sizes up to 2^48-1 bytes, far beyond any document.
const maxSizeClass = 48

// lruList is a doubly linked list of entries ordered from least to most
// recently used, using the Entry's intrusive prev/next pointers.
type lruList struct {
	head, tail *Entry // head = least recently used
	n          int
}

func (l *lruList) pushBack(e *Entry) {
	e.prev = l.tail
	e.next = nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.n++
}

func (l *lruList) remove(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

// NewLRUMin returns an LRU-MIN policy.
func NewLRUMin() *LRUMin { return &LRUMin{} }

// Name implements Policy.
func (p *LRUMin) Name() string { return "LRU-MIN" }

func sizeClass(size int64) int {
	c := log2Floor(size)
	if c > maxSizeClass {
		c = maxSizeClass
	}
	return c
}

// Add implements Policy.
func (p *LRUMin) Add(e *Entry) {
	c := sizeClass(e.Size)
	e.bucket = c
	p.buckets[c].pushBack(e)
	p.count++
}

// Touch implements Policy: move to the most-recently-used end.
func (p *LRUMin) Touch(e *Entry) {
	if e.bucket < 0 {
		return
	}
	l := &p.buckets[e.bucket]
	l.remove(e)
	l.pushBack(e)
}

// Remove implements Policy.
func (p *LRUMin) Remove(e *Entry) {
	if e.bucket < 0 {
		return
	}
	p.buckets[e.bucket].remove(e)
	e.bucket = -1
	p.count--
}

// Victim implements Policy with the threshold-halving search described
// above. incoming is the size of the document being admitted.
func (p *LRUMin) Victim(incoming int64) *Entry {
	if p.count == 0 {
		return nil
	}
	if incoming < 1 {
		incoming = 1
	}
	for threshold := incoming; ; threshold /= 2 {
		if v := p.lruAtLeast(threshold); v != nil {
			return v
		}
		if threshold <= 1 {
			// Thresholds exhausted; fall back to global LRU so the
			// eviction loop always makes progress.
			return p.lruAtLeast(0)
		}
	}
}

// lruAtLeast returns the least recently used entry with Size >= threshold,
// or nil if none exists. Ties on ATime break on the entry's random value
// then URL, keeping the policy deterministic.
func (p *LRUMin) lruAtLeast(threshold int64) *Entry {
	boundary := 0
	if threshold > 0 {
		boundary = sizeClass(threshold)
	}
	var best *Entry
	consider := func(e *Entry) {
		if e == nil {
			return
		}
		if best == nil || olderThan(e, best) {
			best = e
		}
	}
	// Classes strictly above the boundary contain only sizes >= threshold;
	// their LRU head is the only candidate each contributes.
	for c := boundary + 1; c <= maxSizeClass; c++ {
		consider(p.buckets[c].head)
	}
	// The boundary class straddles the threshold: scan it for the least
	// recently used entry that is actually >= threshold.
	for e := p.buckets[boundary].head; e != nil; e = e.next {
		if e.Size >= threshold {
			consider(e)
		}
	}
	return best
}

// olderThan reports whether a should be evicted before b under LRU with
// deterministic tiebreaks.
func olderThan(a, b *Entry) bool {
	if a.ATime != b.ATime {
		return a.ATime < b.ATime
	}
	if a.Rand != b.Rand {
		return a.Rand < b.Rand
	}
	return a.URL < b.URL
}

// Len implements Policy.
func (p *LRUMin) Len() int { return p.count }

// checkInvariants panics if internal bookkeeping is inconsistent; used by
// property tests.
func (p *LRUMin) checkInvariants() {
	total := 0
	for c := range p.buckets {
		n := 0
		for e := p.buckets[c].head; e != nil; e = e.next {
			if e.bucket != c {
				panic(fmt.Sprintf("policy: entry %q in bucket %d has bucket field %d", e.URL, c, e.bucket))
			}
			n++
		}
		if n != p.buckets[c].n {
			panic(fmt.Sprintf("policy: bucket %d length %d != recorded %d", c, n, p.buckets[c].n))
		}
		total += n
	}
	if total != p.count {
		panic(fmt.Sprintf("policy: total entries %d != count %d", total, p.count))
	}
}
