// Siblings demonstrates the Harvest-style cooperative arrangement of the
// paper's reference [8]: two peer caching proxies that ask each other
// over ICP (a tiny UDP protocol) before going to the origin server. A
// document fetched by one lab's proxy is then served to the other lab
// from the sibling, not from the origin.
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
	"time"

	"webcache"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	var originFetches atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		originFetches.Add(1)
		w.Header().Set("Last-Modified", "Mon, 17 Sep 1995 14:00:00 GMT")
		io.WriteString(w, strings.Repeat(r.URL.Path[1:], 200))
	}))
	defer origin.Close()

	// A proxy stores a miss after the client has its last byte, so before
	// each next request the example waits for every proxy handler to
	// return; otherwise a quick client could overtake a store.
	var busy sync.WaitGroup
	settled := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			busy.Add(1)
			defer busy.Done()
			h.ServeHTTP(w, r)
		})
	}

	// Two peer proxies, one per "lab", each with its own ICP responder.
	mkProxy := func() (*webcache.ProxyServer, *httptest.Server, *webcache.ICPResponder, error) {
		pol, err := webcache.NewPolicy("SIZE", 0)
		if err != nil {
			return nil, nil, nil, err
		}
		store := webcache.NewProxyStore(4<<20, pol)
		icp, err := webcache.NewICPResponder(store, "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		srv := webcache.NewProxy(store)
		return srv, httptest.NewServer(settled(srv)), icp, nil
	}
	labA, labATS, labAICP, err := mkProxy()
	if err != nil {
		return err
	}
	defer labATS.Close()
	defer labAICP.Close()
	labB, labBTS, labBICP, err := mkProxy()
	if err != nil {
		return err
	}
	defer labBTS.Close()
	defer labBICP.Close()

	// Peer them. A query ends as soon as every sibling has answered, so
	// the generous timeout costs time only when a sibling is down.
	labA.Siblings = []webcache.ICPSibling{{ICPAddr: labBICP.Addr(), Proxy: labBTS.URL}}
	labB.Siblings = []webcache.ICPSibling{{ICPAddr: labAICP.Addr(), Proxy: labATS.URL}}
	labA.ICP.Timeout = time.Second
	labB.ICP.Timeout = time.Second

	client := func(proxyURL string) (*http.Client, error) {
		pu, err := url.Parse(proxyURL)
		if err != nil {
			return nil, err
		}
		return &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(pu)}}, nil
	}
	clientA, err := client(labATS.URL)
	if err != nil {
		return err
	}
	clientB, err := client(labBTS.URL)
	if err != nil {
		return err
	}

	get := func(c *http.Client, who, path string) error {
		resp, err := c.Get(origin.URL + path)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		busy.Wait()
		fmt.Fprintf(w, "%-6s GET %-12s %-5s  %5d bytes (origin fetches so far: %d)\n",
			who, path, resp.Header.Get("X-Cache"), len(body), originFetches.Load())
		return nil
	}

	for _, step := range []struct {
		c         *http.Client
		who, path string
	}{
		// Lab A's users read the course notes first.
		{clientA, "lab A", "/notes.html"},
		{clientA, "lab A", "/slides.ps"},
		// Lab B's users request the same documents: its proxy misses, asks
		// its sibling over ICP, and fetches from lab A — no origin traffic.
		{clientB, "lab B", "/notes.html"},
		{clientB, "lab B", "/slides.ps"},
		// Now both labs have local copies.
		{clientB, "lab B", "/notes.html"},
		{clientA, "lab A", "/slides.ps"},
	} {
		if err := get(step.c, step.who, step.path); err != nil {
			return err
		}
	}

	fmt.Fprintln(w)
	sa, sb := labA.Stats(), labB.Stats()
	qa, ha := labAICP.Stats()
	fmt.Fprintf(w, "lab A proxy: %d requests, %d local hits; answered %d of %d ICP queries with HIT\n",
		sa.Requests, sa.Hits, ha, qa)
	fmt.Fprintf(w, "lab B proxy: %d requests, %d local hits, %d served via the sibling\n",
		sb.Requests, sb.Hits, sb.SiblingHits)
	fmt.Fprintf(w, "origin server: %d fetches for %d client requests\n",
		originFetches.Load(), sa.Requests+sb.Requests)
	return nil
}
