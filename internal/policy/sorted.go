package policy

import (
	"slices"
	"strings"
)

// Sorted is the taxonomy's generic policy: documents are kept in a total
// removal order defined by a sequence of sorting keys, and the head of
// the order is the next victim. All 36 primary/secondary combinations of
// the paper, plus FIFO, LRU, LFU and Hyper-G, are Sorted instances.
// The order is realized by the cheapest backend that provably matches
// the heap's victim sequence (see structural.go); Backend reports which.
type Sorted struct {
	name string
	ord  order

	// keys is the key sequence packKey writes into each entry's removal
	// key in Add, and again in Touch when touchKeys says a touch can
	// change one of them (ATIME, DAY(ATIME) or NREF).
	keys      []Key
	dayStart  int64
	touchKeys bool
}

// NewSorted returns a policy ordered by keys (primary first). dayStart
// anchors the DAY(ATIME) key's day boundaries; pass the trace start.
// The RANDOM tiebreak is always appended, so a single-key slice yields a
// "<key> with random secondary" policy as used in Experiment 2.
// NewSorted panics when more than three keys remain after a trailing
// RANDOM is dropped (Parse returns that as an error).
func NewSorted(keys []Key, dayStart int64) *Sorted {
	packed, err := packedKeys(keys)
	if err != nil {
		panic(err)
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k.String()
	}
	touchKeys := false
	for _, k := range packed {
		if k == KeyATime || k == KeyDayATime || k == KeyNRef {
			touchKeys = true
		}
	}
	return &Sorted{
		name:      strings.Join(parts, "/"),
		ord:       newOrder(packed),
		keys:      slices.Clone(packed),
		dayStart:  dayStart,
		touchKeys: touchKeys,
	}
}

// Backend reports which structure realizes the removal order: "heap"
// (the universal fallback), "list" (intrusive recency list) or "size"
// (static log2-size buckets). See structural.go for the selection
// rules.
func (p *Sorted) Backend() string { return p.ord.kind() }

// Name implements Policy.
func (p *Sorted) Name() string { return p.name }

// Add implements Policy.
func (p *Sorted) Add(e *Entry) {
	packKey(e, p.keys, p.dayStart)
	p.ord.Add(e)
}

// Touch implements Policy.
func (p *Sorted) Touch(e *Entry) {
	if p.touchKeys {
		packKey(e, p.keys, p.dayStart)
	}
	p.ord.Touch(e)
}

// Reserve implements Reserver: pre-size the backend's backing arrays
// for an expected resident-document count.
func (p *Sorted) Reserve(n int) { p.ord.Grow(n) }

// Remove implements Policy.
func (p *Sorted) Remove(e *Entry) { p.ord.Remove(e) }

func (p *Sorted) release() { p.ord.release() }

// Victim implements Policy: the head of the removal order, regardless of
// the incoming document's size.
func (p *Sorted) Victim(int64) *Entry { return p.ord.Peek() }

// Len implements Policy.
func (p *Sorted) Len() int { return p.ord.Len() }

// Convenience constructors for the literature policies of Table 3.

// NewFIFO returns first-in first-out: primary key ETIME.
func NewFIFO() *Sorted {
	p := NewSorted([]Key{KeyETime}, 0)
	p.name = "FIFO"
	return p
}

// NewLRU returns least-recently-used: primary key ATIME.
func NewLRU() *Sorted {
	p := NewSorted([]Key{KeyATime}, 0)
	p.name = "LRU"
	return p
}

// NewLFU returns least-frequently-used: primary key NREF.
func NewLFU() *Sorted {
	p := NewSorted([]Key{KeyNRef}, 0)
	p.name = "LFU"
	return p
}

// NewHyperG returns the Hyper-G server policy: NREF, then ATIME, then
// SIZE (largest first), then random (Table 3).
func NewHyperG() *Sorted {
	p := NewSorted([]Key{KeyNRef, KeyATime, KeySize}, 0)
	p.name = "Hyper-G"
	return p
}
