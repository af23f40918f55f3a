package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
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

// MarshalJSON encodes the kind as its name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// Event is one cache event: the removal-policy engine's per-request
// outcome at full resolution, the raw material for the eviction-age and
// occupancy distributions the analysis layer computes (the per-policy
// views §3–4 of the paper aggregate into daily HR/WHR curves).
type Event struct {
	Kind EventKind `json:"kind"`
	// Time is the event time in Unix seconds — simulation time on the
	// trace-driven engine, wall clock on the live proxy store.
	Time int64 `json:"time"`
	// ID is the interned URL ID; -1 when the cache indexes by string
	// (the live proxy) or the document is unknown (misses).
	ID   int32 `json:"id"`
	Size int64 `json:"size"`
	// Age is set on evictions: seconds the victim was resident.
	Age int64 `json:"age,omitempty"`
	// NRef is set on hits and evictions: the entry's reference count.
	NRef int64 `json:"nref,omitempty"`
}

// EventRing is a bounded ring buffer of cache events. Recording is a
// short uncontended mutex section (one slot store and one counter
// bump, no allocation), cheap enough to hang off core.CacheHooks on
// the replay hot path; internal/sim's BenchmarkReplayObserved prices
// exactly this enabled path. When the ring wraps, the oldest events are
// overwritten — readers always see the most recent window.
type EventRing struct {
	mu    sync.Mutex
	buf   []Event
	total uint64
}

// NewEventRing returns a ring retaining the last capacity events.
func NewEventRing(capacity int) *EventRing {
	if capacity < 1 {
		capacity = 1
	}
	return &EventRing{buf: make([]Event, capacity)}
}

// Record appends one event, overwriting the oldest when full.
func (r *EventRing) Record(ev Event) {
	r.mu.Lock()
	r.buf[r.total%uint64(len(r.buf))] = ev
	r.total++
	r.mu.Unlock()
}

// Cap returns the ring's capacity.
func (r *EventRing) Cap() int { return len(r.buf) }

// Len returns the number of events currently retained.
func (r *EventRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total < uint64(len(r.buf)) {
		return int(r.total)
	}
	return len(r.buf)
}

// Total returns the number of events ever recorded, including the ones
// the ring has already overwritten.
func (r *EventRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot copies the retained events out, oldest first.
func (r *EventRing) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.total < n {
		out := make([]Event, r.total)
		copy(out, r.buf[:r.total])
		return out
	}
	out := make([]Event, n)
	head := r.total % n // oldest slot
	copy(out, r.buf[head:])
	copy(out[n-head:], r.buf[:head])
	return out
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

// WriteChromeTrace renders the retained events as Chrome trace-event
// JSON. Hits, misses and adds become instant events ("ph":"i");
// evictions become complete events ("ph":"X") spanning the victim's
// residency window ([Time-Age, Time]), so a policy's eviction-age
// behaviour reads directly as span lengths on the timeline. Timestamps
// are microseconds as the format requires; each kind gets its own tid
// track so the four event classes separate visually.
func (r *EventRing) WriteChromeTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.traceEvents())
}

// traceEvents renders the retained events as trace-event records, the
// shared building block of WriteChromeTrace and the combined ring +
// request-tracer export (WriteCombinedChromeTrace).
func (r *EventRing) traceEvents() []traceEvent {
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
