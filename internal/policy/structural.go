package policy

// The structural fast path: most taxonomy combos do not need a heap.
//
// Every Sorted policy is a strict total order over (keys…, Rand, URL),
// and the heap realizes that order generically in O(log n) per Add and
// Touch. But the paper's keys have shape: ETIME never changes after
// insertion, ATIME only ever increases to "now", and SIZE/LOG2SIZE are
// immutable. Each shape admits a dedicated structure that maintains the
// *same* total order — victim for victim, including the Rand/URL
// tiebreak — with cheaper operations:
//
//   - recencyList: an intrusive doubly-linked list kept fully sorted.
//     Serves ETIME- and ATIME-primary combos (FIFO, LRU) where inserted
//     or touched entries carry the current maximum timestamp, so the
//     insertion scan from the tail terminates after the run of entries
//     sharing that timestamp. DAY(ATIME)/ATIME also qualifies: dayOf is
//     monotone nondecreasing in ATime, so the (day, atime, tie) order
//     coincides with the (atime, tie) order.
//   - sizeBuckets: 64 static buckets indexed by the cached ⌊log2 Size⌋,
//     each a small heap on the full order. Serves SIZE- and
//     LOG2SIZE-primary combos; Touch at most re-sifts within one
//     bucket, and entries never migrate (Size is immutable).
//
// Selection is automatic in NewSorted via structuralFor; everything
// else stays on the heap, which remains both the universal fallback and
// the oracle the property tests drain against. That covers DAY(ATIME)
// primaries with non-ATIME secondaries (same-day runs are unbounded, so
// tail scans are not), the extension keys, RANDOM anywhere but last, and
// NREF primaries (LFU, Hyper-G, NREF/*): a per-reference-count bucket
// list was measured slower than the heap on every NREF combo (DESIGN.md
// §12).

// order is the backend contract behind Sorted: a strict-total-order
// container over entries. Peek returns the minimum (next victim) or nil
// when empty. Implementations may use Entry's intrusive fields
// (heapIdx, prev, next, bucket) — entries belong to one policy at a
// time.
type order interface {
	Add(e *Entry)
	Touch(e *Entry)
	Remove(e *Entry)
	Peek() *Entry
	Len() int
	Grow(n int)
	kind() string
}

// newOrder picks the cheapest backend that provably reproduces the
// heap's victim order for the key sequence, falling back to the heap.
func newOrder(keys []Key, less func(a, b *Entry) bool) order {
	if o := structuralFor(keys, less); o != nil {
		return o
	}
	return heapOrder{newEntryHeap(less)}
}

// structuralFor classifies a key sequence and returns its structural
// backend, or nil when only the heap is known to be order-identical.
// The classification mirrors compiledFor: a trailing RANDOM key is
// redundant with the universal Rand tiebreak and is stripped first.
func structuralFor(keys []Key, less func(a, b *Entry) bool) order {
	ks := keys
	if n := len(ks); n > 0 && ks[n-1] == KeyRandom {
		ks = ks[:n-1]
	}
	if len(ks) == 0 {
		return nil
	}
	for _, k := range ks {
		switch k {
		case KeyRandom, KeyType, KeyLatency:
			// RANDOM in a non-final position reorders on no state
			// transition a structure could track; the extension keys
			// are outside the proven set.
			return nil
		}
	}
	if len(ks) > 2 {
		return nil
	}
	primary := ks[0]
	var secondary Key
	hasSecondary := len(ks) == 2
	if hasSecondary {
		secondary = ks[1]
	}
	// Does Touch change any non-primary key the order depends on?
	// Touch sets ATime (and DayATime) to now and increments NRef.
	touchMoves := hasSecondary &&
		(secondary == KeyATime || secondary == KeyDayATime || secondary == KeyNRef)
	switch primary {
	case KeyATime:
		// The touched entry's ATime becomes the maximum, so it belongs
		// at (or within the equal-timestamp run at) the tail.
		return newRecencyList(less, touchTail)
	case KeyETime:
		if touchMoves {
			// ETIME is fixed, so a touch moves the entry only within
			// its equal-ETime run — a bounded local reposition.
			return newRecencyList(less, touchLocal)
		}
		// FIFO-like: every key Touch can change is outside the order.
		return newRecencyList(less, touchNone)
	case KeyDayATime:
		if hasSecondary && secondary == KeyATime {
			// dayOf is monotone nondecreasing in ATime, so sorting by
			// (day, atime, tie) is sorting by (atime, tie); the list's
			// tail insertion argument carries over unchanged. Other
			// DAY(ATIME) primaries stay on the heap: a touch would
			// reposition within the whole same-day run.
			return newRecencyList(less, touchTail)
		}
		return nil
	case KeySize, KeyLog2Size:
		// ⌊log2 Size⌋ is monotone in Size, so bucket order is primary
		// order for both keys; within a bucket the heap handles the
		// residual (for SIZE, the residual still starts with the exact
		// size). Touch re-sifts within the bucket only when a mutable
		// secondary participates.
		return newSizeBuckets(less, touchMoves)
	}
	return nil
}

// heapOrder adapts entryHeap to the order interface — the universal
// fallback and the equivalence oracle.
type heapOrder struct{ h *entryHeap }

func (o heapOrder) Add(e *Entry)    { o.h.Push(e) }
func (o heapOrder) Touch(e *Entry)  { o.h.Fix(e) }
func (o heapOrder) Remove(e *Entry) { o.h.Remove(e) }
func (o heapOrder) Len() int        { return o.h.Len() }
func (o heapOrder) Grow(n int)      { o.h.Grow(n) }
func (o heapOrder) kind() string    { return "heap" }

func (o heapOrder) Peek() *Entry {
	e, _ := o.h.Peek()
	return e
}
