package trace

import (
	"fmt"
	"slices"
	"testing"
)

// internTestTrace builds a small trace with URL reuse, size changes,
// CGI documents and multiple days.
func internTestTrace() *Trace {
	start := int64(800000000 - 800000000%86400)
	urls := []string{
		"http://s1.x/a.gif", "http://s1.x/b.html", "http://s2.x/cgi-bin/q1",
		"http://s1.x/a.gif", "http://s3.x/c.mpg", "http://s1.x/b.html",
		"http://s1.x/a.gif", "http://s2.x/cgi-bin/q1",
	}
	tr := &Trace{Name: "T", Start: start}
	for i, u := range urls {
		tr.Requests = append(tr.Requests, Request{
			Time:   start + int64(i)*40000, // crosses day boundaries
			Client: fmt.Sprintf("c%d", i%3),
			URL:    u,
			Status: 200,
			Size:   int64(100 + 10*(i%4)),
			Type:   ClassifyURL(u),
		})
	}
	return tr
}

// TestInternerDenseRoundTrip checks that BuildColumnar's IDs are dense
// in first-appearance order, stable across re-references, and bijective
// with URLs.
func TestInternerDenseRoundTrip(t *testing.T) {
	tr := &Trace{}
	for _, u := range []string{"a", "b", "c", "a", "b", "d"} {
		tr.Requests = append(tr.Requests, Request{URL: u})
	}
	col := BuildColumnar(tr)
	if want := []int32{0, 1, 2, 0, 1, 3}; !slices.Equal(col.IDs, want) {
		t.Fatalf("IDs = %v, want %v", col.IDs, want)
	}
	if want := []string{"a", "b", "c", "d"}; !slices.Equal(col.URLs, want) {
		t.Fatalf("URLs = %q, want %q", col.URLs, want)
	}
	if cap(col.URLs) != len(col.URLs) {
		t.Fatalf("URLs cap %d, want its length %d", cap(col.URLs), len(col.URLs))
	}
}

// TestColumnarMatchesTrace checks every column against the row-oriented
// request it was decoded from, and the per-ID tables against one
// classification of each distinct URL.
func TestColumnarMatchesTrace(t *testing.T) {
	tr := internTestTrace()
	col := tr.Columnar()
	if col.Len() != len(tr.Requests) {
		t.Fatalf("Len = %d, want %d", col.Len(), len(tr.Requests))
	}
	if col.Name != tr.Name || col.Start != tr.Start {
		t.Fatalf("header %q/%d, want %q/%d", col.Name, col.Start, tr.Name, tr.Start)
	}
	for i := range tr.Requests {
		r := &tr.Requests[i]
		id := col.IDs[i]
		if url := col.URLs[id]; url != r.URL {
			t.Fatalf("req %d: ID %d maps to %q, want %q", i, id, url, r.URL)
		}
		if col.Sizes[i] != r.Size || col.Times[i] != r.Time || col.Types[i] != r.Type {
			t.Fatalf("req %d: columns (%d,%d,%v) != request (%d,%d,%v)",
				i, col.Sizes[i], col.Times[i], col.Types[i], r.Size, r.Time, r.Type)
		}
		if int(col.Day[i]) != r.Day(tr.Start) {
			t.Fatalf("req %d: day %d, want %d", i, col.Day[i], r.Day(tr.Start))
		}
	}
	seen := make(map[string]int, len(col.URLs))
	for id, url := range col.URLs {
		if prev, ok := seen[url]; ok {
			t.Fatalf("IDs %d and %d both map to %q", prev, id, url)
		}
		seen[url] = id
	}
}

// TestColumnarShared checks that the view is built once and shared, the
// sweep-level contract Experiment 2 relies on.
func TestColumnarShared(t *testing.T) {
	tr := internTestTrace()
	if a, b := tr.Columnar(), tr.Columnar(); a != b {
		t.Fatal("Columnar built a second view for the same trace")
	}
}
