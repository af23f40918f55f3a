// Package origin implements a synthetic Web origin server that serves
// the document space of a trace: each URL gets a deterministic body of
// exactly the trace's size with a Last-Modified header. Together with
// the live proxy it closes the loop between the simulator and a real
// HTTP deployment — cmd/livebench replays a trace through both and
// compares the hit rates.
package origin

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"webcache/internal/trace"
)

// doc is one servable document.
type doc struct {
	size    int64
	lastMod time.Time
	ctype   string
}

// Server is an http.Handler serving a trace's document space. Requests
// are matched by reconstructing the absolute URL from the Host header
// and path, so a single listener serves every synthetic host as long as
// connections are dialed to it regardless of name (see RewriteTransport).
type Server struct {
	mu      sync.Mutex
	docs    map[string]doc
	fetches int64
	bytes   int64
}

// FromTrace builds a server from the trace's final size per URL.
func FromTrace(tr *trace.Trace) *Server {
	s := &Server{docs: make(map[string]doc, 1024)}
	base := time.Unix(tr.Start, 0).UTC()
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if r.Status != 200 {
			continue
		}
		s.docs[r.URL] = doc{
			size:    r.Size,
			lastMod: base.Add(-24 * time.Hour),
			ctype:   contentTypeFor(r.Type),
		}
	}
	return s
}

// Docs returns the number of distinct documents served.
func (s *Server) Docs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.docs)
}

// Fetches returns how many 200 responses the origin has served and the
// bytes sent — the load a cache is supposed to absorb.
func (s *Server) Fetches() (n, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetches, s.bytes
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	url := "http://" + r.Host + r.URL.RequestURI()
	s.mu.Lock()
	d, ok := s.docs[url]
	s.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	if ims := r.Header.Get("If-Modified-Since"); ims != "" {
		if t, err := http.ParseTime(ims); err == nil && !d.lastMod.After(t.Add(time.Second)) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	w.Header().Set("Content-Type", d.ctype)
	w.Header().Set("Last-Modified", d.lastMod.Format(http.TimeFormat))
	w.Header().Set("Content-Length", fmt.Sprint(d.size))
	w.WriteHeader(http.StatusOK)
	if r.Method == http.MethodHead {
		return
	}
	n, _ := io.Copy(w, &patternReader{remaining: d.size})
	s.mu.Lock()
	s.fetches++
	s.bytes += n
	s.mu.Unlock()
}

// patternReader streams a deterministic byte pattern without allocating
// whole bodies.
type patternReader struct {
	remaining int64
	pos       int64
}

func (p *patternReader) Read(buf []byte) (int, error) {
	if p.remaining <= 0 {
		return 0, io.EOF
	}
	n := int64(len(buf))
	if n > p.remaining {
		n = p.remaining
	}
	for i := int64(0); i < n; i++ {
		buf[i] = 'a' + byte((p.pos+i)%26)
	}
	p.pos += n
	p.remaining -= n
	return int(n), nil
}

func contentTypeFor(t trace.DocType) string {
	switch t {
	case trace.Graphics:
		return "image/gif"
	case trace.Text:
		return "text/html"
	case trace.Audio:
		return "audio/basic"
	case trace.Video:
		return "video/mpeg"
	default:
		return "application/octet-stream"
	}
}
