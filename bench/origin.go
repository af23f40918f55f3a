package main

import (
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// stubOrigin serves a schedule's document space: each URL gets a body of
// exactly its scheduled size. The proxy reaches it as its parent
// (-parent http://127.0.0.1:<port>), so requests arrive in absolute form
// and the key is rebuilt from Host and the request URI.
type stubOrigin struct {
	docs    map[string]int64
	lastMod string
	rec     *recorder // non-nil in the traced run

	mu        sync.Mutex
	inflight  map[string]int
	fetches   int64
	bytes     int64
	duplicate int64 // fetches for a URL that already had one in flight

	srv *http.Server
	ln  net.Listener
}

// originBody is the shared body source; documents are slices of it.
var originBody = func() []byte {
	b := make([]byte, 64<<10)
	for i := range b {
		b[i] = 'a' + byte(i%26)
	}
	return b
}()

// startOrigin listens on an ephemeral loopback port and serves docs.
func startOrigin(docs map[string]int64, rec *recorder) (*stubOrigin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o := &stubOrigin{
		docs:     docs,
		lastMod:  time.Unix(800000000, 0).UTC().Format(http.TimeFormat),
		rec:      rec,
		inflight: make(map[string]int),
		ln:       ln,
	}
	o.srv = &http.Server{Handler: o}
	go o.srv.Serve(ln) // returns when close() closes the listener
	return o, nil
}

func (o *stubOrigin) url() string { return "http://" + o.ln.Addr().String() }

// close stops the listener and every connection.
func (o *stubOrigin) close() { o.srv.Close() }

func (o *stubOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	url := "http://" + r.Host + r.URL.RequestURI()
	size, ok := o.docs[url]
	if !ok {
		http.NotFound(w, r)
		return
	}
	o.mu.Lock()
	if o.inflight[url] > 0 {
		o.duplicate++
	}
	o.inflight[url]++
	o.mu.Unlock()

	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Last-Modified", o.lastMod)
	h.Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	var sent int64
	for sent < size {
		chunk := originBody
		if rest := size - sent; rest < int64(len(chunk)) {
			chunk = chunk[:rest]
		}
		n, err := w.Write(chunk)
		sent += int64(n)
		if err != nil {
			break
		}
	}

	o.mu.Lock()
	if o.inflight[url]--; o.inflight[url] == 0 {
		delete(o.inflight, url)
	}
	o.fetches++
	o.bytes += sent
	o.mu.Unlock()
	if o.rec != nil {
		o.rec.add("origin.service", "origin.roundtrip", benchReq(r.Header), start, time.Now())
	}
}

// originCounts is a snapshot of the origin's counters.
type originCounts struct{ fetches, bytes, duplicate int64 }

func (o *stubOrigin) counts() originCounts {
	o.mu.Lock()
	defer o.mu.Unlock()
	return originCounts{o.fetches, o.bytes, o.duplicate}
}
