package policy

// touchMode says how a Touch can move an entry within a recencyList,
// given which keys of the order the touch mutates.
type touchMode uint8

const (
	// touchNone: no touched key participates in the order (e.g. pure
	// FIFO, ETIME/SIZE) — the entry's position is already correct.
	touchNone touchMode = iota
	// touchLocal: the primary is fixed but a touched key is the
	// secondary (e.g. ETIME/ATIME) — the entry moves only within its
	// equal-primary run, in either direction.
	touchLocal
	// touchTail: the primary itself is touched to the current maximum
	// (ATIME-primary, DAY(ATIME)/ATIME) — reinsert scanning from the
	// tail.
	touchTail
)

// inListIdx is the heapIdx sentinel marking an entry as linked into a
// recencyList (lists have no array index; the field is otherwise unused
// while the entry belongs to a list-backed policy).
const inListIdx = -2

// recencyList keeps entries in a doubly-linked list maintained in
// exactly lessKey's ascending order: head is the victim.
//
// Insertion scans backward from the tail with lessKey, so
// the list is correct for any inputs; it is *fast* because the combos
// routed here insert and touch entries whose primary key is the current
// clock maximum — the scan stops within the run of entries sharing that
// timestamp, which real traces keep short (same-second arrivals).
// Non-monotone clocks only lengthen the scan, never break the order.
type recencyList struct {
	head, tail *Entry
	n          int
	mode       touchMode
}

func newRecencyList(mode touchMode) *recencyList {
	return &recencyList{mode: mode}
}

func (l *recencyList) kind() string { return "list" }
func (l *recencyList) Len() int     { return l.n }
func (l *recencyList) Grow(int)     {}
func (l *recencyList) release()     {}
func (l *recencyList) Peek() *Entry { return l.head }

func (l *recencyList) Add(e *Entry) {
	l.insertFromTail(e)
	e.heapIdx = inListIdx
	l.n++
}

func (l *recencyList) Remove(e *Entry) {
	if e.heapIdx != inListIdx {
		return
	}
	l.unlink(e)
	e.heapIdx = -1
	l.n--
}

func (l *recencyList) Touch(e *Entry) {
	if e.heapIdx != inListIdx || l.mode == touchNone {
		return
	}
	if l.mode == touchTail {
		// The touched keys rose to the clock maximum, so the
		// destination sits inside the tail's equal-timestamp run:
		// reinsert scanning backward from the tail instead of walking
		// forward from here (which would traverse everything between
		// the old and new positions). Skip the unlink when the local
		// order still holds — in a sorted list that pins the global
		// position, e.g. a re-hit within the same second.
		if (e.next == nil || !lessKey(e.next, e)) &&
			(e.prev == nil || !lessKey(e, e.prev)) {
			return
		}
		l.unlink(e)
		l.insertFromTail(e)
		return
	}
	// touchLocal: the primary is fixed, so the entry moves only within
	// its equal-primary run — a short bidirectional scan.
	if next := e.next; next != nil && lessKey(next, e) {
		// Moved tailward (the common case: keys increased).
		at := next
		l.unlink(e)
		for at.next != nil && lessKey(at.next, e) {
			at = at.next
		}
		l.insertAfter(e, at)
		return
	}
	if prev := e.prev; prev != nil && lessKey(e, prev) {
		// Moved headward — reachable only through a clock regression,
		// but the scan keeps the order exact regardless.
		at := prev
		l.unlink(e)
		for at != nil && lessKey(e, at) {
			at = at.prev
		}
		l.insertAfter(e, at)
	}
}

// insertFromTail places e at its sorted position, scanning backward
// from the tail.
func (l *recencyList) insertFromTail(e *Entry) {
	at := l.tail
	for at != nil && lessKey(e, at) {
		at = at.prev
	}
	l.insertAfter(e, at)
}

// insertAfter links e directly after at; at == nil inserts at the head.
func (l *recencyList) insertAfter(e, at *Entry) {
	if at == nil {
		e.prev = nil
		e.next = l.head
		if l.head != nil {
			l.head.prev = e
		} else {
			l.tail = e
		}
		l.head = e
		return
	}
	e.prev = at
	e.next = at.next
	if at.next != nil {
		at.next.prev = e
	} else {
		l.tail = e
	}
	at.next = e
}

func (l *recencyList) unlink(e *Entry) {
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
	e.prev = nil
	e.next = nil
}
