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

// validate appends the requests of raw that §1.1 keeps to dst. dst may
// share raw.Requests' array: each request is copied out before its
// slot can be written, since the write index never passes the read
// index.
func validate(raw *Trace, dst []Request) (*Trace, *ValidateStats) {
	stats := &ValidateStats{Input: len(raw.Requests)}
	// About half of a synthesized trace's requests name a new URL (on
	// BR, 7 %). Of 1024, n/4, n/2 and n entries, n/2 measured fastest
	// (DESIGN.md §16).
	lastSize := make(map[string]int64, len(raw.Requests)/2)

	for i := range raw.Requests {
		r := raw.Requests[i]
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
	out := &Trace{Name: raw.Name, Start: raw.Start, Requests: dst}
	if len(out.Requests) > 0 && out.Start == 0 {
		first := out.Requests[0].Time
		out.Start = first - first%86400
	}
	return out, stats
}
