package obs

import (
	"fmt"
	"sync"

	"webcache/internal/core"
	"webcache/internal/policy"
)

// EventKind labels one cache event in the trace ring.
type EventKind uint8

const (
	EventHit EventKind = iota
	EventMiss
	EventEvict
	EventAdd
	numEventKinds
)

var eventKindNames = [numEventKinds]string{"hit", "miss", "evict", "add"}

// String returns the kind's wire name ("hit", "miss", "evict", "add").
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one cache event: the removal-policy engine's per-request
// outcome at full resolution, the raw material for the eviction-age and
// occupancy distributions the analysis layer computes (the per-policy
// views §3–4 of the paper aggregate into daily HR/WHR curves).
type Event struct {
	Kind EventKind
	// Time is the event time in Unix seconds — simulation time on the
	// trace-driven engine, wall clock on the live proxy store.
	Time int64
	// ID is the interned URL ID; -1 when the cache indexes by string
	// (the live proxy) or the document is unknown (misses).
	ID   int32
	Size int64
	// Age is set on evictions: seconds the victim was resident.
	Age int64
	// NRef is set on hits and evictions: the entry's reference count.
	NRef int64
}

// Ring is a bounded buffer that overwrites its oldest value when full,
// so readers always see the most recent window. Adding is a short
// uncontended mutex section (one slot store and one counter bump, no
// allocation), cheap enough to hang off core.CacheHooks on the live
// store's request path.
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

// EventRing is the bounded trace of cache events.
type EventRing = Ring[Event]

// NewEventRing returns a ring retaining the last capacity events.
func NewEventRing(capacity int) *EventRing { return NewRing[Event](capacity) }

// RingHooks builds core event hooks that record every cache event into
// ring, the event-level trace; a nil ring gets no hooks, so the cache
// runs unhooked. The per-event work is one ring slot store. The live
// proxy's store (proxy.StoreHooks) is the one caller; its
// string-indexed entries carry ID -1, and so do its events.
func RingHooks(ring *EventRing) core.CacheHooks {
	if ring == nil {
		return core.CacheHooks{}
	}
	return core.CacheHooks{
		OnHit: func(e *policy.Entry) {
			// e.ATime was just refreshed to the request time — it is the
			// event timestamp, no extra plumbing needed.
			ring.Add(Event{Kind: EventHit, Time: e.ATime, ID: e.ID, Size: e.Size, NRef: e.NRef})
		},
		OnMiss: func(size, now int64) {
			ring.Add(Event{Kind: EventMiss, Time: now, ID: -1, Size: size})
		},
		OnEvict: func(e *policy.Entry, now int64) {
			ring.Add(Event{Kind: EventEvict, Time: now, ID: e.ID, Size: e.Size, Age: now - e.ETime, NRef: e.NRef})
		},
		OnAdd: func(e *policy.Entry) {
			// e.ETime is the insert time by construction.
			ring.Add(Event{Kind: EventAdd, Time: e.ETime, ID: e.ID, Size: e.Size})
		},
	}
}

// traceEvent is one Chrome trace-event record (the "JSON Array Format"
// of the Trace Event specification, loadable in Perfetto and
// chrome://tracing). ph, ts, pid and name are the required keys.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    int64          `json:"ts"` // microseconds
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ringTraceEvents renders the retained events as trace-event records
// for WriteCombinedChromeTrace. Hits, misses and adds become instant
// events ("ph":"i"); evictions become complete events ("ph":"X")
// spanning the victim's residency window ([Time-Age, Time]), so a
// policy's eviction-age behaviour reads directly as span lengths on
// the timeline. Timestamps are microseconds as the format requires;
// each kind gets its own tid track so the four event classes separate
// visually.
func ringTraceEvents(r *EventRing) []traceEvent {
	events := r.Snapshot()
	out := make([]traceEvent, 0, len(events))
	for _, ev := range events {
		te := traceEvent{
			Name: ev.Kind.String(),
			Ts:   ev.Time * 1e6,
			Pid:  1,
			Tid:  1 + int(ev.Kind),
			Args: map[string]any{"size": ev.Size},
		}
		if ev.ID >= 0 {
			te.Args["id"] = ev.ID
		}
		switch ev.Kind {
		case EventEvict:
			te.Phase = "X"
			te.Ts = (ev.Time - ev.Age) * 1e6
			te.Dur = ev.Age * 1e6
			te.Args["age"] = ev.Age
			te.Args["nref"] = ev.NRef
		case EventHit:
			te.Phase = "i"
			te.Scope = "t"
			te.Args["nref"] = ev.NRef
		default:
			te.Phase = "i"
			te.Scope = "t"
		}
		out = append(out, te)
	}
	return out
}
