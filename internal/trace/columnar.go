package trace

import "slices"

// Columnar is the interned struct-of-arrays view of a trace: one int32
// URL ID, size, time, day index and document type per request, plus
// the ID → URL table. The view is built in a single decode pass
// (Trace.Columnar) and is read-only afterwards, so a policy sweep fans
// the same view out to every worker and replays it with no string
// hashing, no day division and no URL re-classification per request.
//
// The view keeps only what a replay reads. The URL → ID map interning
// needed is dropped once the view is built: no replay looks a URL up,
// and the map held about two fifths of the view's memory (DESIGN.md
// §8).
type Columnar struct {
	Name  string
	Start int64 // Unix seconds of the first day's midnight

	// Per-request columns, all of length Len().
	IDs   []int32   // interned URL ID
	Sizes []int64   // bytes transferred (after §1.1 validation)
	Times []int64   // Unix seconds
	Day   []int32   // day index relative to Start
	Types []DocType // the request's logged media type (drives per-type stats)

	// URLs maps an interned ID to its URL, for reporting, the
	// LatencyOf/ExpiresOf hooks and the dynamic-document test; it has
	// NumIDs() entries.
	URLs []string
}

// BuildColumnar interns every URL of tr and materializes the columnar
// view. IDs are dense, in first-appearance order: the i-th distinct URL
// gets ID i. The §1.1 hit rule (URL *and* size match) survives
// interning because the URL ↔ ID mapping is a bijection, so ID equality
// is URL equality (FuzzInterner pins this). The URL → ID map is
// pre-sized for one distinct URL per two requests, about what the
// synthesized workloads have (DESIGN.md §8 times the choice), and is
// dropped on return.
func BuildColumnar(tr *Trace) *Columnar {
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
	ids := make(map[string]int32, n/2)
	urls := make([]string, 0, n/2)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		id, ok := ids[r.URL]
		if !ok {
			id = int32(len(urls))
			ids[r.URL] = id
			urls = append(urls, r.URL)
		}
		c.IDs[i] = id
		c.Sizes[i] = r.Size
		c.Times[i] = r.Time
		c.Day[i] = int32((r.Time - tr.Start) / 86400)
		c.Types[i] = r.Type
	}
	// Copy the table out at its exact length: the presized spare
	// capacity would outlive the build (on BR, over twenty times the
	// table).
	c.URLs = slices.Clone(urls)
	return c
}

// Len returns the number of requests in the view.
func (c *Columnar) Len() int { return len(c.IDs) }

// NumIDs returns the number of distinct URLs (IDs are 0..NumIDs()-1).
func (c *Columnar) NumIDs() int { return len(c.URLs) }

// Columnar returns the interned columnar view of t, built once and
// shared between replays (safe for concurrent use; the requests must
// not be mutated afterwards). Traces produced by the transform helpers
// get a fresh view.
func (t *Trace) Columnar() *Columnar {
	t.colOnce.Do(func() {
		t.col = BuildColumnar(t)
	})
	return t.col
}
