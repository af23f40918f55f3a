package obs

import "sync"

// Ring is a bounded buffer that overwrites its oldest value when full,
// so readers always see the most recent window. Adding is a short
// uncontended mutex section (one slot store and one counter bump, no
// allocation). The request tracer keeps its flagged and recent traces
// in two, and the access logger its recent lines in one.
type Ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	total uint64
}

// NewRing returns a ring retaining the last capacity values (at least
// one).
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{buf: make([]T, max(capacity, 1))}
}

// Add appends v, overwriting the oldest value when the ring is full,
// and returns the value it overwrote: the zero value until Cap values
// have been added.
func (r *Ring[T]) Add(v T) (old T) {
	r.mu.Lock()
	i := r.total % uint64(len(r.buf))
	old, r.buf[i] = r.buf[i], v
	r.total++
	r.mu.Unlock()
	return old
}

// Cap returns the ring's capacity.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Len returns the number of values currently retained.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.total, uint64(len(r.buf))))
}

// Total returns the number of values ever added, including the ones
// the ring has already overwritten.
func (r *Ring[T]) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot copies the retained values out, oldest first.
func (r *Ring[T]) Snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.total < n {
		out := make([]T, r.total)
		copy(out, r.buf[:r.total])
		return out
	}
	out := make([]T, n)
	head := r.total % n // oldest slot
	copy(out, r.buf[head:])
	copy(out[n-head:], r.buf[:head])
	return out
}
