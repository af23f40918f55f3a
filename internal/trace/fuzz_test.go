package trace

import (
	"strings"
	"testing"
)

// FuzzParseCLFLine: arbitrary log lines must parse or error, never
// panic, and accepted lines must re-serialize consistently: WriteCLF's
// extended line for the parsed request parses back to the same request.
func FuzzParseCLFLine(f *testing.F) {
	f.Add(`c1 - - [17/Sep/1995:14:05:12 +0000] "GET http://s/a.gif HTTP/1.0" 200 10`)
	f.Add(`c1 - - [17/Sep/1995:14:05:12 +0000] "GET http://s/a.gif HTTP/1.0" 200 10 lastmod=811000000`)
	f.Add(`host - - [date] "GET" 200`)
	f.Add(``)
	f.Add(`"""[[[]]]`)
	f.Add(`c1 - - [01/Jan/0000:00:00:00 +2359] "GET http://s/a.gif HTTP/1.0" 200 10`)
	f.Add(`c1 - - [31/Dec/9999:23:59:59 -2359] "GET http://s/a.gif HTTP/1.0" 200 10`)
	f.Fuzz(func(t *testing.T, line string) {
		req, err := ParseCLFLine(line)
		if err != nil {
			return
		}
		if req.Size < 0 {
			t.Fatalf("accepted negative size: %q", line)
		}
		if req.URL == "" {
			t.Fatalf("accepted empty URL: %q", line)
		}
		var out strings.Builder
		if err := WriteCLF(&out, &Trace{Requests: []Request{req}}, true); err != nil {
			t.Fatal(err)
		}
		again, err := ParseCLFLine(strings.TrimSuffix(out.String(), "\n"))
		if err != nil {
			t.Fatalf("re-serialized %q as %q, which does not parse: %v", line, out.String(), err)
		}
		if again != req {
			t.Fatalf("re-serialized %q as %q: parsed %+v, want %+v", line, out.String(), again, req)
		}
	})
}

// FuzzInterner: BuildColumnar's IDs round-trip to their URLs for
// arbitrary strings, are dense in first-appearance order, distinct URLs
// never collide on an ID, and the §1.1 hit rule — a request hits iff
// URL *and* size match — is preserved when URLs are replaced by
// interned IDs.
func FuzzInterner(f *testing.F) {
	f.Add("http://s/a.gif", "http://s/b.gif", int64(100), int64(100))
	f.Add("http://s/a.gif", "http://s/a.gif", int64(100), int64(200))
	f.Add("", "\x00", int64(0), int64(0))
	f.Add("u", "u", int64(-5), int64(-5))
	f.Fuzz(func(t *testing.T, urlA, urlB string, sizeA, sizeB int64) {
		// urlA again last: re-interning must be stable.
		tr := &Trace{Requests: []Request{
			{URL: urlA, Size: sizeA}, {URL: urlB, Size: sizeB}, {URL: urlA, Size: sizeA},
		}}
		col := BuildColumnar(tr)
		idA, idB := col.IDs[0], col.IDs[1]
		// Bijection: ID equality must coincide with URL equality.
		if (urlA == urlB) != (idA == idB) {
			t.Fatalf("IDs %d,%d for URLs %q,%q: interning broke URL identity", idA, idB, urlA, urlB)
		}
		// Dense, in first-appearance order.
		wantB, wantN := int32(1), 2
		if urlA == urlB {
			wantB, wantN = 0, 1
		}
		if idA != 0 || idB != wantB || col.NumIDs() != wantN {
			t.Fatalf("IDs %d,%d of %d distinct, want 0,%d of %d", idA, idB, col.NumIDs(), wantB, wantN)
		}
		if col.IDs[2] != idA {
			t.Fatal("re-interning changed an ID")
		}
		// Round trip: URLs[IDs[i]] is the request's URL.
		for i, r := range tr.Requests {
			if got := col.URLs[col.IDs[i]]; got != r.URL {
				t.Fatalf("request %d: URLs[%d] = %q, want %q", i, col.IDs[i], got, r.URL)
			}
		}
		// §1.1 hit rule: a cached copy of (urlA, sizeA) serves a request
		// for (urlB, sizeB) iff URL and size both match — identically
		// under string comparison and under interned-ID comparison.
		hitByURL := urlA == urlB && sizeA == sizeB
		hitByID := idA == idB && sizeA == sizeB
		if hitByURL != hitByID {
			t.Fatalf("hit rule diverged: byURL=%v byID=%v for %q/%d vs %q/%d",
				hitByURL, hitByID, urlA, sizeA, urlB, sizeB)
		}
	})
}

// FuzzClassifyURL: the classifier is total over strings.
func FuzzClassifyURL(f *testing.F) {
	f.Add("http://a/x.gif")
	f.Add("")
	f.Add("cgi-bin")
	f.Add("http://")
	f.Add("...///...")
	f.Fuzz(func(t *testing.T, url string) {
		if dt := ClassifyURL(url); dt >= NumDocTypes {
			t.Fatalf("invalid type %d for %q", dt, url)
		}
	})
}
