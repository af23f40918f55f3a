// Liveproxy runs the deployable counterpart of the simulator: an origin
// server, a parent caching proxy, and a child caching proxy chained to
// it (the two-level arrangement of Experiment 3), all in-process. A
// client then replays a request mix through the child and the example
// prints where each level answered from.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"webcache"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Origin: a handful of documents of very different sizes.
	docs := map[string]string{
		"/index.html": strings.Repeat("h", 2_000),
		"/logo.gif":   strings.Repeat("g", 800),
		"/paper.ps":   strings.Repeat("p", 120_000),
		"/song.au":    strings.Repeat("a", 400_000),
	}
	var originHits atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		originHits.Add(1)
		body, ok := docs[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Last-Modified", "Mon, 17 Sep 1995 14:00:00 GMT")
		io.WriteString(w, body)
	}))
	defer origin.Close()

	// A proxy stores a miss after the client has its last byte, so before
	// each next request the example waits for both proxies' handlers to
	// return; otherwise a quick client could overtake a store.
	var busy sync.WaitGroup
	settled := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			busy.Add(1)
			defer busy.Done()
			h.ServeHTTP(w, r)
		})
	}

	// Parent proxy: large, SIZE policy (the paper's Experiment 3 keeps
	// big documents alive at the second level).
	parentPol, err := webcache.NewPolicy("SIZE", 0)
	if err != nil {
		return err
	}
	parent := webcache.NewProxy(webcache.NewProxyStore(8<<20, parentPol))
	parentTS := httptest.NewServer(settled(parent))
	defer parentTS.Close()

	// Child proxy: small, also SIZE, chained to the parent.
	childPol, err := webcache.NewPolicy("SIZE", 0)
	if err != nil {
		return err
	}
	child := webcache.NewProxy(webcache.NewProxyStore(150_000, childPol))
	parentURL, err := url.Parse(parentTS.URL)
	if err != nil {
		return err
	}
	child.Transport = &http.Transport{Proxy: http.ProxyURL(parentURL)}
	childTS := httptest.NewServer(settled(child))
	defer childTS.Close()

	childURL, err := url.Parse(childTS.URL)
	if err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(childURL)}}

	// A request mix: small documents repeat often, big ones rarely.
	mix := []string{
		"/index.html", "/logo.gif", "/index.html", "/paper.ps",
		"/logo.gif", "/index.html", "/song.au", "/logo.gif",
		"/index.html", "/paper.ps", "/song.au", "/index.html",
	}
	fmt.Fprintf(w, "%-14s %-12s %s\n", "document", "child says", "bytes")
	for _, path := range mix {
		resp, err := client.Get(origin.URL + path)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		busy.Wait()
		fmt.Fprintf(w, "%-14s %-12s %d\n", path, resp.Header.Get("X-Cache"), len(body))
	}

	cs, ps := child.Stats(), parent.Stats()
	fmt.Fprintf(w, "\nchild:  %d requests, %d hits (HR %.0f%%), store holds %d docs\n",
		cs.Requests, cs.Hits, 100*float64(cs.Hits)/float64(cs.Requests), child.Store().Len())
	fmt.Fprintf(w, "parent: %d requests, %d hits — the large documents the child's\n", ps.Requests, ps.Hits)
	fmt.Fprintf(w, "        SIZE policy evicted were answered here, not by the origin\n")
	fmt.Fprintf(w, "origin: %d fetches for %d client requests\n", originHits.Load(), len(mix))
	return nil
}
