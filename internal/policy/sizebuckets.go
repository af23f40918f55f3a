package policy

// sizeBuckets realizes SIZE- and LOG2SIZE-primary orders with a static
// index: 64 buckets addressed by ⌊log2 Size⌋ (monotone in Size, so
// bucket order is primary order for both keys). Largest-first removal
// means the victim lives in the highest non-empty bucket; within a
// bucket a small entryHeap on the full removal key settles the
// residual order (for SIZE primaries that residual still begins with
// the exact byte size, which varies only within one power of two per
// bucket).
//
// Size never changes in place — a size mismatch replaces the entry — so
// entries never migrate between buckets: Add and Remove touch exactly
// one bucket, and Touch either does nothing (static secondary) or
// re-sifts within the entry's bucket (ATIME/DAY/NREF secondary).
type sizeBuckets struct {
	buckets [64]entryHeap
	// maxB is a high-water hint: no bucket above it is non-empty. Peek
	// walks it downward lazily; Add raises it. -1 when empty.
	maxB       int
	n          int
	fixOnTouch bool
}

func newSizeBuckets(fixOnTouch bool) *sizeBuckets {
	return &sizeBuckets{maxB: -1, fixOnTouch: fixOnTouch}
}

func (s *sizeBuckets) kind() string { return "size" }
func (s *sizeBuckets) Len() int     { return s.n }
func (s *sizeBuckets) Grow(int)     {}

func (s *sizeBuckets) release() {
	for i := range s.buckets {
		s.buckets[i].release()
	}
}

func (s *sizeBuckets) Add(e *Entry) {
	i := log2Floor(e.Size)
	s.buckets[i].Push(e)
	if i > s.maxB {
		s.maxB = i
	}
	s.n++
}

func (s *sizeBuckets) Touch(e *Entry) {
	if s.fixOnTouch {
		s.buckets[log2Floor(e.Size)].Fix(e)
	}
}

func (s *sizeBuckets) Remove(e *Entry) {
	if s.buckets[log2Floor(e.Size)].Remove(e) {
		s.n--
	}
}

func (s *sizeBuckets) Peek() *Entry {
	for i := s.maxB; i >= 0; i-- {
		if s.buckets[i].Len() > 0 {
			s.maxB = i
			e, _ := s.buckets[i].Peek()
			return e
		}
	}
	s.maxB = -1
	return nil
}
