package trace

import (
	"reflect"
	"slices"
	"testing"
)

// validateReference is §1.1 written as plainly as possible: one map
// write per kept request, a fresh output array. Validate and
// ValidateOwned must agree with it.
func validateReference(raw *Trace) ([]Request, ValidateStats) {
	stats := ValidateStats{Input: len(raw.Requests)}
	var out []Request
	last := map[string]int64{}
	for _, r := range raw.Requests {
		if r.Status != 200 {
			stats.DroppedStatus++
			continue
		}
		prev, seen := last[r.URL]
		if r.Size == 0 && !seen {
			stats.DroppedZeroSize++
			continue
		}
		if r.Size == 0 {
			r.Size = prev
			stats.InheritedSize++
		}
		if seen {
			stats.ReReferences++
			if r.Size != prev {
				stats.SizeChanges++
			}
		}
		last[r.URL] = r.Size
		stats.Kept++
		out = append(out, r)
	}
	return out, stats
}

// validateChunked runs a Validator in place over a copy of raw's
// requests, adding them in the chunks that the ascending indices cuts
// delimit.
func validateChunked(raw *Trace, cuts []int) (*Trace, *ValidateStats) {
	reqs := slices.Clone(raw.Requests)
	v := NewValidator(reqs[:0], len(reqs))
	lo := 0
	for _, hi := range cuts {
		v.Add(reqs[lo:hi])
		lo = hi
	}
	v.Add(reqs[lo:])
	return v.Trace(raw.Name, raw.Start)
}

// checkValidateContract runs Validate and ValidateOwned on copies of
// reqs, and a Validator fed chunks of chunk requests, and fails unless
// Validate left its input untouched and all three returned the
// reference's requests and statistics.
func checkValidateContract(t *testing.T, reqs []Request, chunk int) {
	t.Helper()
	raw := &Trace{Name: "t", Requests: append([]Request(nil), reqs...)}
	before := append([]Request(nil), raw.Requests...)
	valid, stats := Validate(raw)
	if !reflect.DeepEqual(raw.Requests, before) {
		t.Fatalf("Validate modified its input:\n got %+v\nwant %+v", raw.Requests, before)
	}

	owned := &Trace{Name: "t", Requests: append([]Request(nil), reqs...)}
	ovalid, ostats := ValidateOwned(owned)
	if len(owned.Requests) != 0 {
		t.Fatalf("ValidateOwned left %d requests in the raw trace", len(owned.Requests))
	}
	if ovalid.Name != valid.Name || ovalid.Start != valid.Start ||
		!sameRequests(ovalid.Requests, valid.Requests) || *ostats != *stats {
		t.Fatalf("ValidateOwned differs from Validate:\n got %+v %+v\nwant %+v %+v", ovalid, *ostats, valid, *stats)
	}

	var cuts []int
	for c := chunk; c < len(reqs); c += chunk {
		cuts = append(cuts, c)
	}
	cvalid, cstats := validateChunked(&Trace{Name: "t", Requests: reqs}, cuts)
	if cvalid.Name != valid.Name || cvalid.Start != valid.Start ||
		!sameRequests(cvalid.Requests, valid.Requests) || *cstats != *stats {
		t.Fatalf("in chunks of %d, Validator differs from Validate:\n got %+v %+v\nwant %+v %+v",
			chunk, cvalid, *cstats, valid, *stats)
	}

	want, wantStats := validateReference(&Trace{Requests: reqs})
	if !sameRequests(valid.Requests, want) {
		t.Fatalf("Validate kept %+v, reference %+v", valid.Requests, want)
	}
	if *stats != wantStats {
		t.Fatalf("Validate stats %+v, reference %+v", *stats, wantStats)
	}
}

// sameRequests is reflect.DeepEqual without telling a nil slice from an
// empty one.
func sameRequests(a, b []Request) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestValidateContract covers each §1.1 rule for both entry points
// and for a Validator fed every chunk length.
func TestValidateContract(t *testing.T) {
	const x, y = "http://a/x.html", "http://a/y.gif"
	cases := []struct {
		name string
		reqs []Request
	}{
		{"non-200", []Request{
			{URL: x, Status: 200, Size: 100, Time: 1},
			{URL: x, Status: 304, Time: 2},
			{URL: y, Status: 404, Size: 50, Time: 3},
			{URL: x, Status: 200, Size: 100, Time: 4},
		}},
		{"zero-size first reference", []Request{
			{URL: y, Status: 200, Time: 1},
			{URL: x, Status: 200, Size: 500, Time: 2},
			{URL: y, Status: 200, Size: 70, Time: 3},
		}},
		{"inherited size", []Request{
			{URL: x, Status: 200, Size: 500, Time: 1},
			{URL: x, Status: 200, Time: 2},
			{URL: x, Status: 200, Time: 3},
		}},
		{"size change", []Request{
			{URL: x, Status: 200, Size: 100, Time: 1},
			{URL: x, Status: 200, Size: 100, Time: 2},
			{URL: x, Status: 200, Size: 120, Time: 3},
			{URL: x, Status: 200, Size: 120, Time: 4},
		}},
		{"inherit after change", []Request{
			{URL: x, Status: 200, Size: 100, Time: 1},
			{URL: y, Status: 500, Time: 2},
			{URL: x, Status: 200, Size: 250, Time: 3},
			{URL: x, Status: 200, Time: 4},
		}},
		{"empty", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for chunk := 1; chunk <= len(c.reqs)+1; chunk++ {
				checkValidateContract(t, c.reqs, chunk)
			}
		})
	}
}

// FuzzValidateOwned checks the contract on arbitrary request sequences:
// each three input bytes pick a URL out of four, a status and a size out
// of four (zero included), so drops, inheritance and size changes
// interleave freely; the Validator is fed chunks of 1+chunk requests,
// so a chunk boundary can fall between any two of them.
func FuzzValidateOwned(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 5, 0, 0, 0, 2}, uint8(0))
	f.Add([]byte{1, 0, 0, 1, 0, 3, 1, 0, 0, 2, 3, 1}, uint8(1))
	// Chunks of two: a size first seen at the end of one chunk, inherited
	// at the start of the next, then changed.
	f.Add([]byte{0, 2, 1, 2, 0, 3, 2, 0, 0, 2, 1, 2}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		urls := [4]string{"http://a/0.html", "http://a/1.gif", "http://b/2.au", "http://b/3"}
		statuses := [4]int{200, 200, 304, 404}
		sizes := [4]int64{0, 100, 200, 300}
		var reqs []Request
		for i := 0; i+2 < len(data); i += 3 {
			reqs = append(reqs, Request{
				Time:   int64(i),
				URL:    urls[data[i]%4],
				Status: statuses[data[i+1]%4],
				Size:   sizes[data[i+2]%4],
			})
		}
		checkValidateContract(t, reqs, 1+int(chunk))
	})
}
