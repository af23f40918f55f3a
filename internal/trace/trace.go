// Package trace defines the Web request model used throughout the
// simulator, the common log format reader/writer, the file-type
// classification of Table 4, and the trace validation rules of §1.1 of
// the paper (status-200 filtering and zero-size inheritance).
package trace

import (
	"strings"
	"sync"
	"time"
)

// DocType is the media classification of a document, grouped by filename
// extension exactly as in §2.2/Table 4 of the paper.
type DocType uint8

// Document type categories from Table 4.
const (
	Graphics    DocType = iota // .gif .jpg .jpeg .xbm .png .bmp .tif .tiff
	Text                       // .html .htm .txt .ps .tex .doc .pdf and bare directories
	Audio                      // .au .wav .snd .aif .aiff .mp2 .ra .ram
	Video                      // .mpg .mpeg .mov .avi .qt .fli
	CGI                        // cgi-bin paths and URLs with query strings
	Unknown                    // everything else
	NumDocTypes = 6
)

// String returns the Table 4 row label for the type.
func (t DocType) String() string {
	switch t {
	case Graphics:
		return "Graphics"
	case Text:
		return "Text/html"
	case Audio:
		return "Audio"
	case Video:
		return "Video"
	case CGI:
		return "CGI"
	default:
		return "Unknown"
	}
}

// extType maps a lower-case filename extension (without the dot) to a type.
var extType = map[string]DocType{
	"gif": Graphics, "jpg": Graphics, "jpeg": Graphics, "jpe": Graphics,
	"xbm": Graphics, "xpm": Graphics, "png": Graphics, "bmp": Graphics,
	"tif": Graphics, "tiff": Graphics, "pcx": Graphics, "ico": Graphics,

	"html": Text, "htm": Text, "txt": Text, "text": Text, "ps": Text,
	"tex": Text, "dvi": Text, "doc": Text, "pdf": Text, "man": Text,
	"md": Text, "me": Text, "c": Text, "h": Text, "java": Text,

	"au": Audio, "wav": Audio, "snd": Audio, "aif": Audio, "aiff": Audio,
	"aifc": Audio, "mp2": Audio, "mpa": Audio, "ra": Audio, "ram": Audio,
	"mid": Audio, "midi": Audio,

	"mpg": Video, "mpeg": Video, "mpe": Video, "mov": Video, "avi": Video,
	"qt": Video, "fli": Video, "movie": Video,
}

// ClassifyURL returns the DocType for a URL path, following the paper's
// extension grouping. CGI is recognized from "cgi-bin" path components or
// a query string, which also marks the document dynamically generated.
func ClassifyURL(url string) DocType {
	// Strip scheme and host if present; we only care about the path.
	path := url
	if i := strings.Index(path, "://"); i >= 0 {
		path = path[i+3:]
		if j := strings.IndexByte(path, '/'); j >= 0 {
			path = path[j:]
		} else {
			path = "/"
		}
	}
	if i := strings.IndexByte(path, '#'); i >= 0 {
		path = path[:i]
	}
	if strings.Contains(path, "cgi-bin") || strings.ContainsRune(path, '?') {
		return CGI
	}
	// Last path segment's extension.
	seg := path
	if i := strings.LastIndexByte(seg, '/'); i >= 0 {
		seg = seg[i+1:]
	}
	if seg == "" { // directory request -> an HTML index page
		return Text
	}
	dot := strings.LastIndexByte(seg, '.')
	if dot < 0 || dot == len(seg)-1 {
		return Unknown
	}
	ext := strings.ToLower(seg[dot+1:])
	if t, ok := extType[ext]; ok {
		return t
	}
	return Unknown
}

// IsDynamic reports whether the URL names a dynamically generated
// document (CGI path or query string), which a real proxy would not
// cache. The paper's simulator includes these requests; the simulator
// here has an option to exclude them.
func IsDynamic(url string) bool { return ClassifyURL(url) == CGI }

// Request is one client URL request: a single line of a (possibly
// extended) common log format trace after parsing.
type Request struct {
	Time   int64  // Unix seconds
	Client string // remote host field
	URL    string // request URL (as logged)
	Status int    // HTTP status code
	Size   int64  // bytes transferred (response body size); 0 is meaningful (§1.1)
	Type   DocType
	// LastModified is the optional Last-Modified header time (extended
	// field, present in workloads BR and BL); zero when absent.
	LastModified int64
}

// Day returns the request's day index relative to a trace start time,
// both in Unix seconds. Day boundaries are UTC midnights from start.
func (r *Request) Day(start int64) int {
	return int((r.Time - start) / 86400)
}

// Trace is an ordered sequence of requests plus its start time.
type Trace struct {
	Name     string
	Start    int64 // Unix seconds of the first day's midnight
	Requests []Request

	// col caches the interned columnar view (Columnar), built lazily
	// once per trace and shared by every replay of a sweep.
	colOnce sync.Once
	col     *Columnar
}

// Days returns the number of calendar days the trace spans (at least 1
// for a non-empty trace).
func (t *Trace) Days() int {
	if len(t.Requests) == 0 {
		return 0
	}
	last := t.Requests[len(t.Requests)-1].Time
	return int((last-t.Start)/86400) + 1
}

// TotalBytes returns the sum of the sizes of all requests.
func (t *Trace) TotalBytes() int64 {
	var n int64
	for i := range t.Requests {
		n += t.Requests[i].Size
	}
	return n
}

// clfTimeLayout is the common log format timestamp layout.
const clfTimeLayout = "02/Jan/2006:15:04:05 -0700"

// FormatCLFTime renders a Unix time in common log format (UTC).
func FormatCLFTime(unix int64) string {
	return time.Unix(unix, 0).UTC().Format(clfTimeLayout)
}
