package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
)

// This file implements reading and writing of the NCSA/CERN "common log
// format" used by the paper's traces (§2.1), plus the extended fields the
// authors appended for the backbone workloads (Last-Modified).
//
// A common log format line is
//
//	host ident authuser [date] "request" status bytes
//
// e.g.
//
//	burrow.cs.vt.edu - - [17/Sep/1995:14:05:12 +0000] "GET http://www.w3.org/a.html HTTP/1.0" 200 2326
//
// The extended form appends "lastmod=<unix>" after the byte count.

// WriteCLF writes the trace to w in (extended) common log format.
// When extended is true, a lastmod=<unix> field is appended to requests
// that carry a Last-Modified time.
func WriteCLF(w io.Writer, t *Trace, extended bool) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for i := range t.Requests {
		r := &t.Requests[i]
		sizeField := strconv.FormatInt(r.Size, 10)
		if r.Size == 0 {
			sizeField = "0"
		}
		if _, err := fmt.Fprintf(bw, "%s - - [%s] \"GET %s HTTP/1.0\" %d %s",
			r.Client, FormatCLFTime(r.Time), r.URL, r.Status, sizeField); err != nil {
			return fmt.Errorf("trace: writing line %d: %w", i, err)
		}
		if extended && r.LastModified != 0 {
			if _, err := fmt.Fprintf(bw, " lastmod=%d", r.LastModified); err != nil {
				return fmt.Errorf("trace: writing line %d: %w", i, err)
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("trace: writing line %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ParseError records a malformed trace line.
type ParseError struct {
	Line int
	Text string
	Err  error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("trace: line %d: %v (%q)", e.Line, e.Err, truncate(e.Text, 80))
}

func (e *ParseError) Unwrap() error { return e.Err }

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// ReadCLF parses an (extended) common log format stream. Malformed lines
// are skipped but counted; the first malformed line's error is returned
// in *ReadStats for diagnosis. Name and Start of the returned trace are
// set from name and the first request's midnight.
//
// A Trace is in time order, but a proxy logs a request when it
// completes, so a real log can be out of order by a few seconds. Such
// a log is sorted stably by Time (lines with equal times keep their
// file order); a sorted log is left as read.
func ReadCLF(r io.Reader, name string) (*Trace, *ReadStats, error) {
	stats := &ReadStats{}
	t := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		req, err := ParseCLFLine(line)
		if err != nil {
			stats.Malformed++
			if stats.FirstError == nil {
				stats.FirstError = &ParseError{Line: lineNo, Text: line, Err: err}
			}
			continue
		}
		stats.Parsed++
		t.Requests = append(t.Requests, req)
	}
	if err := sc.Err(); err != nil {
		return nil, stats, fmt.Errorf("trace: reading log: %w", err)
	}
	byTime := func(a, b Request) int { return cmp.Compare(a.Time, b.Time) }
	if !slices.IsSortedFunc(t.Requests, byTime) {
		slices.SortStableFunc(t.Requests, byTime)
	}
	if len(t.Requests) > 0 {
		first := t.Requests[0].Time
		t.Start = first - first%86400
	}
	return t, stats, nil
}

// ReadStats summarizes a ReadCLF pass.
type ReadStats struct {
	Parsed     int
	Malformed  int
	FirstError error
}

// ParseCLFLine parses a single (extended) common log format line.
func ParseCLFLine(line string) (Request, error) {
	var req Request

	// host ident authuser
	host, rest, ok := cutField(line)
	if !ok {
		return req, fmt.Errorf("missing host field")
	}
	req.Client = host
	if _, rest, ok = cutField(rest); !ok { // ident
		return req, fmt.Errorf("missing ident field")
	}
	if _, rest, ok = cutField(rest); !ok { // authuser
		return req, fmt.Errorf("missing authuser field")
	}

	// [date]
	rest = strings.TrimLeft(rest, " ")
	if len(rest) == 0 || rest[0] != '[' {
		return req, fmt.Errorf("missing [date] field")
	}
	end := strings.IndexByte(rest, ']')
	if end < 0 {
		return req, fmt.Errorf("unterminated [date] field")
	}
	ts, err := time.Parse(clfTimeLayout, rest[1:end])
	if err != nil {
		return req, fmt.Errorf("bad timestamp: %w", err)
	}
	// WriteCLF renders the time in UTC with a four-digit year; an
	// offset that carries it out of 0000–9999 could not be written back.
	if y := ts.UTC().Year(); y < 0 || y > 9999 {
		return req, fmt.Errorf("bad timestamp: year %d in UTC", y)
	}
	req.Time = ts.Unix()
	rest = rest[end+1:]

	// "request"
	rest = strings.TrimLeft(rest, " ")
	if len(rest) == 0 || rest[0] != '"' {
		return req, fmt.Errorf("missing request field")
	}
	end = strings.IndexByte(rest[1:], '"')
	if end < 0 {
		return req, fmt.Errorf("unterminated request field")
	}
	reqLine := rest[1 : 1+end]
	rest = rest[end+2:]
	parts := strings.Fields(reqLine)
	if len(parts) < 2 {
		return req, fmt.Errorf("short request line %q", reqLine)
	}
	req.URL = parts[1]
	req.Type = ClassifyURL(req.URL)

	// status bytes [lastmod=...]
	statusField, rest, ok := cutField(rest)
	if !ok {
		return req, fmt.Errorf("missing status field")
	}
	status, err := strconv.Atoi(statusField)
	if err != nil {
		return req, fmt.Errorf("bad status %q", statusField)
	}
	req.Status = status

	sizeField, rest, _ := cutField(rest)
	if sizeField == "" {
		return req, fmt.Errorf("missing size field")
	}
	if sizeField == "-" {
		req.Size = 0
	} else {
		size, err := strconv.ParseInt(sizeField, 10, 64)
		if err != nil || size < 0 {
			return req, fmt.Errorf("bad size %q", sizeField)
		}
		req.Size = size
	}

	// Optional extended fields.
	for {
		var field string
		field, rest, ok = cutField(rest)
		if field == "" {
			break
		}
		if v, found := strings.CutPrefix(field, "lastmod="); found {
			lm, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return req, fmt.Errorf("bad lastmod %q", v)
			}
			req.LastModified = lm
		}
		if !ok {
			break
		}
	}
	return req, nil
}

// cutField returns the next space-delimited field and the remainder.
func cutField(s string) (field, rest string, ok bool) {
	s = strings.TrimLeft(s, " ")
	if s == "" {
		return "", "", false
	}
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", true
}
