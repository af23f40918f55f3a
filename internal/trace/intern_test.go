package trace

import (
	"fmt"
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

// TestInternerDenseRoundTrip checks that IDs are dense, stable, and
// bijective with URLs.
func TestInternerDenseRoundTrip(t *testing.T) {
	in := NewInterner(0)
	urls := []string{"a", "b", "c", "a", "b", "d"}
	want := []int32{0, 1, 2, 0, 1, 3}
	for i, u := range urls {
		if id := in.Intern(u); id != want[i] {
			t.Fatalf("Intern(%q) = %d, want %d", u, id, want[i])
		}
	}
	if in.Len() != 4 {
		t.Fatalf("Len = %d, want 4", in.Len())
	}
	for _, u := range []string{"a", "b", "c", "d"} {
		id, ok := in.Lookup(u)
		if !ok {
			t.Fatalf("Lookup(%q) missed", u)
		}
		if got := in.URL(id); got != u {
			t.Fatalf("URL(%d) = %q, want %q", id, got, u)
		}
	}
	if _, ok := in.Lookup("missing"); ok {
		t.Fatal("Lookup found a never-interned URL")
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
