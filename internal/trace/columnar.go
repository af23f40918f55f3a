package trace

import (
	"slices"
	"sync"
)

// Columnar is the interned struct-of-arrays view of a trace: one int32
// URL ID, size, time, day index and document type per request, plus
// the ID → URL table and a per-ID dynamic-document flag derived from
// each distinct URL exactly once. The view is built in a single decode
// pass (Trace.Columnar) and is read-only afterwards, so a policy sweep
// fans the same view out to every worker and replays it with no string
// hashing, no day division and no URL re-classification per request.
//
// The view keeps only what a replay reads. The URL → ID map interning
// needed is dropped once the view is built: no replay looks a URL up,
// and the map held about two fifths of the view's memory (DESIGN.md
// §8). ID rebuilds it on first use.
type Columnar struct {
	Name  string
	Start int64 // Unix seconds of the first day's midnight

	// Per-request columns, all of length Len().
	IDs   []int32   // interned URL ID
	Sizes []int64   // bytes transferred (after §1.1 validation)
	Times []int64   // Unix seconds
	Day   []int32   // day index relative to Start
	Types []DocType // the request's logged media type (drives per-type stats)

	// Per-ID tables, all of length NumIDs(), indexed by interned ID.
	URLs []string // ID → URL, for reporting and the LatencyOf/ExpiresOf hooks
	// Dynamic is IsDynamic(URL) computed once per distinct URL: the
	// §1.1 dynamically-generated test that the string engine re-derives
	// from the URL on every insert.
	Dynamic []bool

	// ids is the URL → ID map, built by the first ID call.
	idsOnce sync.Once
	ids     map[string]int32
}

// BuildColumnar interns every URL of tr and materializes the columnar
// view. hint pre-sizes the interner (expected distinct-URL count); any
// value yields the same view. The interner's map is dropped on return.
func BuildColumnar(tr *Trace, hint int) *Columnar {
	n := len(tr.Requests)
	c := &Columnar{
		Name:  tr.Name,
		Start: tr.Start,
		IDs:   make([]int32, n),
		Sizes: make([]int64, n),
		Times: make([]int64, n),
		Day:   make([]int32, n),
		Types: make([]DocType, n),
	}
	in := NewInterner(hint)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		c.IDs[i] = in.Intern(r.URL)
		c.Sizes[i] = r.Size
		c.Times[i] = r.Time
		c.Day[i] = int32((r.Time - tr.Start) / 86400)
		c.Types[i] = r.Type
	}
	// Copy the table out of the interner: its spare capacity, sized
	// from hint, would outlive the build (on BR, 15 times the table).
	c.URLs = slices.Clone(in.URLs())
	c.Dynamic = make([]bool, len(c.URLs))
	for id, url := range c.URLs {
		c.Dynamic[id] = IsDynamic(url)
	}
	return c
}

// Len returns the number of requests in the view.
func (c *Columnar) Len() int { return len(c.IDs) }

// NumIDs returns the number of distinct URLs (IDs are 0..NumIDs()-1).
func (c *Columnar) NumIDs() int { return len(c.URLs) }

// ID returns the interned ID of url, if url appears in the trace. The
// first call builds the URL → ID map from URLs and keeps it; calls may
// come from several goroutines sharing the view.
func (c *Columnar) ID(url string) (int32, bool) {
	c.idsOnce.Do(func() {
		c.ids = make(map[string]int32, len(c.URLs))
		for id, u := range c.URLs {
			c.ids[u] = int32(id)
		}
	})
	id, ok := c.ids[url]
	return id, ok
}

// Columnar returns the interned columnar view of t, built once and
// shared between replays (safe for concurrent use; the requests must
// not be mutated afterwards, the same contract as DayIndex). Traces
// produced by the transform helpers get a fresh view.
func (t *Trace) Columnar() *Columnar {
	t.colOnce.Do(func() {
		t.col = BuildColumnar(t, len(t.Requests)/3)
	})
	return t.col
}
