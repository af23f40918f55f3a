package proxy

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestICPMarshalRoundTrip(t *testing.T) {
	for _, m := range []*ICPMessage{
		{Opcode: ICPOpQuery, Version: ICPVersion, ReqNum: 42,
			RequestIP: [4]byte{10, 0, 0, 1}, URL: "http://s.vt.edu/a.gif"},
		{Opcode: ICPOpHit, Version: ICPVersion, ReqNum: 7, URL: "http://s.vt.edu/b.html"},
		{Opcode: ICPOpMiss, Version: ICPVersion, ReqNum: 9, URL: ""},
	} {
		data, err := MarshalICP(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalICP(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Opcode != m.Opcode || got.ReqNum != m.ReqNum || got.URL != m.URL {
			t.Fatalf("round trip: %+v != %+v", got, m)
		}
		if m.Opcode == ICPOpQuery && got.RequestIP != m.RequestIP {
			t.Fatalf("requester address lost: %v", got.RequestIP)
		}
	}
}

func TestICPMarshalRoundTripProperty(t *testing.T) {
	f := func(reqNum uint32, urlBytes []byte) bool {
		// NUL bytes cannot appear in ICP URLs (NUL-terminated field).
		url := make([]byte, 0, len(urlBytes))
		for _, b := range urlBytes {
			if b != 0 {
				url = append(url, b)
			}
		}
		if len(url) > 1500 {
			url = url[:1500]
		}
		m := &ICPMessage{Opcode: ICPOpQuery, Version: ICPVersion, ReqNum: reqNum, URL: string(url)}
		data, err := MarshalICP(m)
		if err != nil {
			return false
		}
		got, err := UnmarshalICP(data)
		return err == nil && got.URL == m.URL && got.ReqNum == reqNum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestICPUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalICP([]byte{1, 2, 3}); err == nil {
		t.Fatal("short datagram accepted")
	}
	// Length field exceeding datagram size.
	m := &ICPMessage{Opcode: ICPOpHit, Version: ICPVersion, URL: "http://x/"}
	data, _ := MarshalICP(m)
	data[2], data[3] = 0xff, 0xff
	if _, err := UnmarshalICP(data); err == nil {
		t.Fatal("oversized length field accepted")
	}
	// Query without requester address.
	q := make([]byte, icpHeaderLen)
	q[0] = ICPOpQuery
	q[1] = ICPVersion
	q[2], q[3] = 0, icpHeaderLen
	if _, err := UnmarshalICP(q); err == nil {
		t.Fatal("query without requester address accepted")
	}
}

func TestICPMarshalTooLarge(t *testing.T) {
	huge := make([]byte, maxICPPacket)
	for i := range huge {
		huge[i] = 'a'
	}
	if _, err := MarshalICP(&ICPMessage{Opcode: ICPOpHit, URL: string(huge)}); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestICPResponderHitMiss(t *testing.T) {
	store := NewStore(1<<20, nil)
	store.Put("http://s/x.html", &Object{Body: []byte("cached"), StoredAt: time.Now()})
	resp, err := NewICPResponder(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Close()

	c := &ICPClient{Timeout: 500 * time.Millisecond}
	sib := []Sibling{{ICPAddr: resp.Addr(), Proxy: "http://unused"}}

	if got := c.QuerySiblings(sib, "http://s/x.html"); got == nil {
		t.Fatal("cached URL reported MISS")
	}
	if got := c.QuerySiblings(sib, "http://s/absent.html"); got != nil {
		t.Fatal("absent URL reported HIT")
	}
	q, h := resp.Stats()
	if q != 2 || h != 1 {
		t.Fatalf("responder stats queries=%d hits=%d", q, h)
	}
	// Peek-based answering must not perturb store recency stats.
	if st := store.Stats(); st.Gets != 0 {
		t.Fatalf("ICP queries counted as Gets: %+v", st)
	}
}

func TestICPQueryNoSiblings(t *testing.T) {
	c := &ICPClient{}
	if got := c.QuerySiblings(nil, "http://x/"); got != nil {
		t.Fatal("no-sibling query returned a sibling")
	}
}

func TestICPQueryDeadSibling(t *testing.T) {
	c := &ICPClient{Timeout: 50 * time.Millisecond}
	start := time.Now()
	got := c.QuerySiblings([]Sibling{{ICPAddr: "127.0.0.1:1", Proxy: "x"}}, "http://x/")
	if got != nil {
		t.Fatal("dead sibling reported HIT")
	}
	if time.Since(start) > time.Second {
		t.Fatal("dead-sibling query did not respect the timeout")
	}
}

// TestSiblingFetch is the full cooperative arrangement: two proxies, one
// holds the document; the other's miss is answered through the sibling
// without touching the origin.
func TestSiblingFetch(t *testing.T) {
	var originHits atomic.Int64
	body := "shared document body"
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		originHits.Add(1)
		w.Header().Set("Last-Modified", "Mon, 17 Sep 1995 14:00:00 GMT")
		fmt.Fprint(w, body)
	}))
	defer origin.Close()

	// Sibling A: will hold the document.
	aStore := NewStore(1<<20, nil)
	a := New(aStore)
	aTS := httptest.NewServer(a)
	defer aTS.Close()
	aICP, err := NewICPResponder(aStore, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer aICP.Close()

	// Proxy B: configured with A as a sibling.
	b := New(NewStore(1<<20, nil))
	b.Siblings = []Sibling{{ICPAddr: aICP.Addr(), Proxy: aTS.URL}}
	b.ICP.Timeout = 500 * time.Millisecond
	bTS := httptest.NewServer(b)
	defer bTS.Close()

	target := origin.URL + "/doc.html"

	// Warm sibling A through its own listener.
	proxyGet(t, aTS.URL, target, nil)
	if originHits.Load() != 1 {
		t.Fatalf("origin hits %d after warming A", originHits.Load())
	}

	// B misses locally, ICP finds A, fetch goes through A: the origin
	// must not be contacted again.
	resp, got := proxyGet(t, bTS.URL, target, nil)
	if got != body {
		t.Fatalf("body %q", got)
	}
	if originHits.Load() != 1 {
		t.Fatalf("origin contacted despite sibling hit (%d hits)", originHits.Load())
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if b.Stats().SiblingHits != 1 {
		t.Fatalf("B stats %+v", b.Stats())
	}
	if a.Stats().Hits != 1 {
		t.Fatalf("A stats %+v", a.Stats())
	}

	// B now caches its own copy; a repeat stays local.
	resp, _ = proxyGet(t, bTS.URL, target, nil)
	if resp.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("B did not cache the sibling-served document: %q", resp.Header.Get("X-Cache"))
	}
}

// TestSiblingMissFallsThrough: with an empty sibling, the fetch reaches
// the origin normally.
func TestSiblingMissFallsThrough(t *testing.T) {
	var originHits atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		originHits.Add(1)
		fmt.Fprint(w, "from origin")
	}))
	defer origin.Close()

	emptyStore := NewStore(1<<20, nil)
	emptyICP, err := NewICPResponder(emptyStore, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer emptyICP.Close()

	b := New(NewStore(1<<20, nil))
	b.Siblings = []Sibling{{ICPAddr: emptyICP.Addr(), Proxy: "http://127.0.0.1:1"}}
	b.ICP.Timeout = 200 * time.Millisecond
	bTS := httptest.NewServer(b)
	defer bTS.Close()

	_, body := proxyGet(t, bTS.URL, origin.URL+"/x.html", nil)
	if body != "from origin" {
		t.Fatalf("body %q", body)
	}
	if originHits.Load() != 1 {
		t.Fatalf("origin hits %d", originHits.Load())
	}
	if b.Stats().SiblingHits != 0 {
		t.Fatal("phantom sibling hit recorded")
	}
}

// TestSiblingFetchesReuseConnection pins the per-sibling transport: two
// misses served through the same sibling travel over one connection
// instead of dialing (and leaking an idle pool) per fetch.
func TestSiblingFetchesReuseConnection(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "document ", r.URL.Path)
	}))
	defer origin.Close()

	aStore := NewStore(1<<20, nil)
	var dialed atomic.Int64
	aTS := httptest.NewUnstartedServer(New(aStore))
	aTS.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dialed.Add(1)
		}
	}
	aTS.Start()
	defer aTS.Close()
	aICP, err := NewICPResponder(aStore, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer aICP.Close()

	b := New(NewStore(1<<20, nil))
	b.Siblings = []Sibling{{ICPAddr: aICP.Addr(), Proxy: aTS.URL}}
	b.ICP.Timeout = 500 * time.Millisecond
	bTS := httptest.NewServer(b)
	defer bTS.Close()

	targets := []string{origin.URL + "/one.html", origin.URL + "/two.html"}
	for _, target := range targets {
		proxyGet(t, aTS.URL, target, nil) // warm sibling A
	}
	before := dialed.Load()
	for _, target := range targets {
		if _, body := proxyGet(t, bTS.URL, target, nil); !strings.HasPrefix(body, "document ") {
			t.Fatalf("body %q", body)
		}
	}
	if b.Stats().SiblingHits != 2 {
		t.Fatalf("B stats %+v, want two sibling hits", b.Stats())
	}
	if got := dialed.Load() - before; got != 1 {
		t.Fatalf("B opened %d connections to its sibling for two fetches, want 1", got)
	}
}
