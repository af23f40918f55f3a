package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"webcache/internal/rng"
)

func TestParseCLFLine(t *testing.T) {
	line := `burrow.cs.vt.edu - - [17/Sep/1995:14:05:12 +0000] "GET http://www.w3.org/a.html HTTP/1.0" 200 2326`
	req, err := ParseCLFLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if req.Client != "burrow.cs.vt.edu" {
		t.Errorf("client %q", req.Client)
	}
	if req.URL != "http://www.w3.org/a.html" {
		t.Errorf("url %q", req.URL)
	}
	if req.Status != 200 || req.Size != 2326 {
		t.Errorf("status/size %d/%d", req.Status, req.Size)
	}
	if req.Type != Text {
		t.Errorf("type %v", req.Type)
	}
	if req.Time != 811346712 {
		t.Errorf("time %d", req.Time)
	}
}

func TestParseCLFLineExtended(t *testing.T) {
	line := `c1 - - [17/Sep/1995:14:05:12 +0000] "GET http://s/a.gif HTTP/1.0" 200 99 lastmod=811000000`
	req, err := ParseCLFLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if req.LastModified != 811000000 {
		t.Fatalf("lastmod %d", req.LastModified)
	}
}

func TestParseCLFLineDashSize(t *testing.T) {
	line := `c1 - - [17/Sep/1995:14:05:12 +0000] "GET http://s/a.gif HTTP/1.0" 304 -`
	req, err := ParseCLFLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if req.Size != 0 || req.Status != 304 {
		t.Fatalf("size/status %d/%d", req.Size, req.Status)
	}
}

func TestParseCLFLineMalformed(t *testing.T) {
	bad := []string{
		"",
		"host",
		"host - -",
		`host - - [baddate] "GET /x HTTP/1.0" 200 5`,
		`host - - [17/Sep/1995:14:05:12 +0000] GET /x 200 5`,
		`host - - [17/Sep/1995:14:05:12 +0000] "GEThttp" 200 5`,
		`host - - [17/Sep/1995:14:05:12 +0000] "GET /x HTTP/1.0" abc 5`,
		`host - - [17/Sep/1995:14:05:12 +0000] "GET /x HTTP/1.0" 200 -5`,
		`host - - [17/Sep/1995:14:05:12 +0000] "GET /x HTTP/1.0" 200`,
		`host - - [17/Sep/1995:14:05:12 +0000] "GET /x HTTP/1.0`,
	}
	for _, line := range bad {
		if _, err := ParseCLFLine(line); err == nil {
			t.Errorf("ParseCLFLine(%q) accepted", line)
		}
	}
}

func TestCLFRoundTrip(t *testing.T) {
	tr := &Trace{Name: "rt", Start: 811296000, Requests: []Request{
		{Time: 811296010, Client: "c1.vt.edu", URL: "http://s1.vt.edu/a.gif", Status: 200, Size: 1234, Type: Graphics},
		{Time: 811296020, Client: "c2.vt.edu", URL: "http://s1.vt.edu/b.html", Status: 404, Size: 0, Type: Text},
		{Time: 811296030, Client: "c1.vt.edu", URL: "http://s2.vt.edu/c.au", Status: 200, Size: 999999, Type: Audio, LastModified: 811000000},
	}}
	var buf bytes.Buffer
	if err := WriteCLF(&buf, tr, true); err != nil {
		t.Fatal(err)
	}
	got, stats, err := ReadCLF(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Malformed != 0 {
		t.Fatalf("%d malformed lines: %v", stats.Malformed, stats.FirstError)
	}
	if len(got.Requests) != len(tr.Requests) {
		t.Fatalf("round trip %d != %d requests", len(got.Requests), len(tr.Requests))
	}
	for i := range tr.Requests {
		a, b := tr.Requests[i], got.Requests[i]
		if a.Time != b.Time || a.Client != b.Client || a.URL != b.URL ||
			a.Status != b.Status || a.Size != b.Size || a.LastModified != b.LastModified {
			t.Fatalf("request %d mismatch:\n  wrote %+v\n  read  %+v", i, a, b)
		}
	}
	if got.Start != tr.Start {
		t.Fatalf("Start %d != %d", got.Start, tr.Start)
	}
}

// TestCLFRoundTripProperty fuzzes random requests through write+read.
func TestCLFRoundTripProperty(t *testing.T) {
	r := rng.New(99)
	f := func(tsOff uint32, size uint32, status8 uint8) bool {
		status := []int{200, 304, 404, 500}[int(status8)%4]
		req := Request{
			Time:   811296000 + int64(tsOff%(numDays*86400)),
			Client: "c" + string(rune('a'+r.Intn(26))),
			URL:    "http://s.vt.edu/p" + string(rune('a'+r.Intn(26))) + ".gif",
			Status: status,
			Size:   int64(size % (1 << 30)),
		}
		tr := &Trace{Requests: []Request{req}}
		var buf bytes.Buffer
		if err := WriteCLF(&buf, tr, false); err != nil {
			return false
		}
		got, _, err := ReadCLF(&buf, "x")
		if err != nil || len(got.Requests) != 1 {
			return false
		}
		g := got.Requests[0]
		return g.Time == req.Time && g.URL == req.URL && g.Status == req.Status && g.Size == req.Size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// numDays bounds the random timestamp offset in the property test.
const numDays = 365

func TestReadCLFSkipsMalformed(t *testing.T) {
	log := strings.Join([]string{
		`c1 - - [17/Sep/1995:14:05:12 +0000] "GET http://s/a.gif HTTP/1.0" 200 10`,
		`garbage line`,
		``,
		`c2 - - [17/Sep/1995:14:05:13 +0000] "GET http://s/b.gif HTTP/1.0" 200 20`,
	}, "\n")
	tr, stats, err := ReadCLF(strings.NewReader(log), "x")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Parsed != 2 || stats.Malformed != 1 {
		t.Fatalf("parsed=%d malformed=%d", stats.Parsed, stats.Malformed)
	}
	if stats.FirstError == nil || !strings.Contains(stats.FirstError.Error(), "line 2") {
		t.Fatalf("FirstError = %v", stats.FirstError)
	}
	if len(tr.Requests) != 2 {
		t.Fatalf("%d requests", len(tr.Requests))
	}
}

// TestReadCLFSortsByTime checks that an out-of-order log comes back in
// time order, lines with equal times in file order, with Start at the
// earliest request's midnight.
func TestReadCLFSortsByTime(t *testing.T) {
	log := strings.Join([]string{
		`c1 - - [18/Sep/1995:00:00:01 +0000] "GET http://s/a HTTP/1.0" 200 1`,
		`c2 - - [17/Sep/1995:23:59:59 +0000] "GET http://s/b HTTP/1.0" 200 2`,
		`c3 - - [18/Sep/1995:00:00:01 +0000] "GET http://s/c HTTP/1.0" 200 3`,
		`c4 - - [17/Sep/1995:23:59:59 +0000] "GET http://s/d HTTP/1.0" 200 4`,
	}, "\n")
	tr, _, err := ReadCLF(strings.NewReader(log), "x")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range tr.Requests {
		got = append(got, r.Client)
	}
	if want := []string{"c2", "c4", "c1", "c3"}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if want := tr.Requests[0].Time - tr.Requests[0].Time%86400; tr.Start != want {
		t.Fatalf("Start = %d, want %d", tr.Start, want)
	}
}

func TestFormatCLFTimeStable(t *testing.T) {
	if got := FormatCLFTime(811346712); got != "17/Sep/1995:14:05:12 +0000" {
		t.Fatalf("FormatCLFTime = %q", got)
	}
}
