package policy

// PitkowRecker implements the Pitkow/Recker policy (Table 3) as a proxy
// cache removal policy:
//
//	If any cached document was last accessed before the current day, the
//	primary key is DAY(ATIME) and the document accessed the most days ago
//	is removed. Otherwise (everything was accessed today) the primary key
//	is SIZE and the largest document is removed.
//
// The paper leaves the tie-break within the oldest day unspecified; this
// implementation breaks day ties by SIZE (largest first), which matches
// the policy's own else-branch, then randomly. A single heap ordered by
// (DAY(ATIME) asc, SIZE desc, random) realizes both branches: when every
// document was accessed today the day key ties everywhere and the heap
// degenerates to SIZE order, exactly the else-branch.
//
// Pitkow/Recker as published also runs at the end of each day, removing
// documents until a "comfort level" of free space is reached; that
// periodic variant is provided by core.Cache's periodic-sweep option
// (§1.3 of the paper) and benchmarked as an ablation.
type PitkowRecker struct {
	heap     entryHeap
	dayStart int64
	now      int64
}

// pitkowKeys is the removal key Pitkow/Recker packs into each entry.
var pitkowKeys = []Key{KeyDayATime, KeySize}

// NewPitkowRecker returns the policy. dayStart anchors day boundaries.
func NewPitkowRecker(dayStart int64) *PitkowRecker {
	return &PitkowRecker{dayStart: dayStart}
}

// Name implements Policy.
func (p *PitkowRecker) Name() string { return "Pitkow/Recker" }

// SetNow informs the policy of the current simulation time. The cache
// calls it before Victim; it only affects which branch the paper's
// description says is active, which for a single combined heap is
// automatic, so the value is retained only for introspection.
func (p *PitkowRecker) SetNow(now int64) { p.now = now }

// Add implements Policy. The removal key is packed here and in Touch,
// the only points where ATime, and so DAY(ATIME), changes.
func (p *PitkowRecker) Add(e *Entry) {
	packKey(e, pitkowKeys, p.dayStart)
	p.heap.Push(e)
}

// Touch implements Policy.
func (p *PitkowRecker) Touch(e *Entry) {
	packKey(e, pitkowKeys, p.dayStart)
	p.heap.Fix(e)
}

// Reserve implements Reserver.
func (p *PitkowRecker) Reserve(n int) { p.heap.Grow(n) }

func (p *PitkowRecker) release() { p.heap.release() }

// Remove implements Policy.
func (p *PitkowRecker) Remove(e *Entry) { p.heap.Remove(e) }

// Victim implements Policy.
func (p *PitkowRecker) Victim(int64) *Entry {
	head, ok := p.heap.Peek()
	if !ok {
		return nil
	}
	return head
}

// Len implements Policy.
func (p *PitkowRecker) Len() int { return p.heap.Len() }
