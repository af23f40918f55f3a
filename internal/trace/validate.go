package trace

// Validation implements §1.1 of the paper: which logged requests count as
// part of the simulated trace, and how zero-size log entries are handled.
//
// Rules, verbatim from the paper:
//
//  1. The server return code must be 200. Client/server errors and
//     requests satisfied by the client's own cache (304) are dropped.
//  2. If the log records a size of 0 for a URL that has not been seen
//     before, the request is discarded.
//  3. If the log records a size of 0 for a URL previously seen with a
//     non-zero size, the URL is assumed unmodified: the request is kept
//     and assigned the last known size.

// ValidateStats reports what Validate did and the size-change statistics
// the paper quotes (0.5%–4.1% of re-referenced URLs change size).
type ValidateStats struct {
	Input           int // requests examined
	Kept            int // requests in the validated trace
	DroppedStatus   int // non-200 requests dropped
	DroppedZeroSize int // zero-size first-occurrence requests dropped
	InheritedSize   int // zero-size requests assigned the last known size
	SizeChanges     int // re-references whose size differed from the last known size
	ReReferences    int // re-references to a previously seen URL
}

// SizeChangeFraction returns the fraction of re-references that observed
// a changed size (the paper's 0.5%–4.1% consistency statistic).
func (s *ValidateStats) SizeChangeFraction() float64 {
	if s.ReReferences == 0 {
		return 0
	}
	return float64(s.SizeChanges) / float64(s.ReReferences)
}

// Validate applies §1.1 to raw and returns the validated trace along with
// statistics. The input is not modified. Requests in the result carry the
// (possibly inherited) size actually used by the simulator, so hit rate
// and weighted hit rate are measured against the same exact trace.
func Validate(raw *Trace) (*Trace, *ValidateStats) {
	return validate(raw, make([]Request, 0, len(raw.Requests)))
}

// ValidateOwned is Validate for a caller that discards raw: the
// validated requests are written over raw.Requests instead of into a
// second array, and raw is left with no requests.
func ValidateOwned(raw *Trace) (*Trace, *ValidateStats) {
	out, stats := validate(raw, raw.Requests[:0])
	// Release the dropped lines' strings still held past the kept prefix.
	clear(raw.Requests[len(out.Requests):])
	raw.Requests = nil
	return out, stats
}

// validate appends the requests of raw that §1.1 keeps to dst, as one
// chunk of a Validator.
func validate(raw *Trace, dst []Request) (*Trace, *ValidateStats) {
	v := NewValidator(dst, len(raw.Requests))
	v.Add(raw.Requests)
	return v.Trace(raw.Name, raw.Start)
}

// A Validator is §1.1 fed one chunk at a time: Add the raw trace's
// requests in consecutive chunks, in order, then take the result with
// Trace. Splitting a trace into chunks, anywhere, changes neither the
// kept requests nor the statistics. Validate and ValidateOwned add the
// whole trace as one chunk; workload.GenerateValidated adds each day as
// soon as it is generated.
type Validator struct {
	stats    ValidateStats
	lastSize map[string]int64
	kept     []Request
}

// NewValidator returns a Validator that appends the requests §1.1
// keeps to dst; n is the expected number of raw requests. dst may share
// the array of the raw requests when it starts at the first of them
// (dst = raw[:0]): each request is copied out before its slot can be
// written, since the write index never passes the read index.
func NewValidator(dst []Request, n int) *Validator {
	// About half of a synthesized trace's requests name a new URL (on
	// BR, 7 %). Of 1024, n/4, n/2 and n entries, n/2 measured fastest
	// (DESIGN.md §16).
	return &Validator{lastSize: make(map[string]int64, n/2), kept: dst}
}

// Add validates the next chunk of the raw trace.
func (v *Validator) Add(chunk []Request) {
	stats, lastSize, dst := &v.stats, v.lastSize, v.kept
	stats.Input += len(chunk)
	for i := range chunk {
		r := chunk[i]
		if r.Status != 200 {
			stats.DroppedStatus++
			continue
		}
		prev, seen := lastSize[r.URL]
		if r.Size == 0 {
			if !seen {
				stats.DroppedZeroSize++
				continue
			}
			r.Size = prev
			stats.InheritedSize++
		}
		if seen {
			stats.ReReferences++
			if r.Size != prev {
				stats.SizeChanges++
			}
		}
		if !seen || r.Size != prev {
			lastSize[r.URL] = r.Size
		}
		stats.Kept++
		dst = append(dst, r)
	}
	v.kept = dst
}

// Trace returns the validated trace, named name, and the statistics.
// A zero start is taken from the first kept request's midnight.
func (v *Validator) Trace(name string, start int64) (*Trace, *ValidateStats) {
	out := &Trace{Name: name, Start: start, Requests: v.kept}
	if len(out.Requests) > 0 && out.Start == 0 {
		first := out.Requests[0].Time
		out.Start = first - first%86400
	}
	stats := v.stats // a copy: the result must not keep the URL map alive
	return out, &stats
}
