package proxy

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webcache/internal/core"
	"webcache/internal/obs"
	"webcache/internal/policy"
	"webcache/internal/trace"
)

// lookup is the event of a store lookup of url that hit, or missed and
// put the document.
func lookup(url string, size int64, hit bool) *shadowEvent {
	return &shadowEvent{url: url, size: size, looked: true, hit: hit, stored: !hit}
}

// shadowTrace builds a small deterministic request stream with enough
// reuse to produce hits and enough volume to force evictions at the
// test capacity.
func shadowTrace(n int) []trace.Request {
	reqs := make([]trace.Request, 0, n)
	for i := 0; i < n; i++ {
		doc := (i * 7) % 40
		reqs = append(reqs, trace.Request{
			Time: int64(1000 + i),
			URL:  fmt.Sprintf("http://origin.test/doc/%d", doc),
			Size: int64(500 + 300*(doc%5)),
			Type: trace.Text,
		})
	}
	return reqs
}

func TestShadowFleetMatchesSimulator(t *testing.T) {
	const capacity = 4000
	const seed = 42
	reqs := shadowTrace(400)

	specs := []string{"LRU", "SIZE", "LFU"}
	var now int64
	fleet, err := NewShadowFleet(ShadowOptions{
		Policies: specs,
		Capacity: capacity,
		Seed:     seed,
		Clock:    func() int64 { return now },
	})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}

	for i := range reqs {
		now = reqs[i].Time
		// Where a shadow disagrees with the store it inserts on its own
		// miss, and a store that missed put the document, so each shadow
		// replays Access whatever the store answered; alternate it to
		// exercise both deployed paths.
		fleet.observe(lookup(reqs[i].URL, reqs[i].Size, i%3 == 0))
	}
	rep := fleet.Report()

	if rep.Processed != int64(len(reqs)) {
		t.Fatalf("processed %d, want %d", rep.Processed, len(reqs))
	}

	// Each shadow must agree exactly with a fresh simulator run of the
	// same policy over the same trace — the cross-check invariant. The
	// trace's sizes never change, so a Lookup hits where Access does.
	for i, spec := range specs {
		pol, err := policy.Parse(spec, 0)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		sim := core.New(core.Config{Capacity: capacity, Policy: pol, Seed: seed})
		for j := range reqs {
			sim.Access(&reqs[j])
		}
		st := sim.Stats()
		sh := rep.Shadows[i]
		if sh.Policy != pol.Name() {
			t.Errorf("shadow %d policy = %q, want %q", i, sh.Policy, pol.Name())
		}
		if sh.Requests != st.Requests || sh.Hits != st.Hits {
			t.Errorf("%s: shadow %d/%d requests/hits, simulator %d/%d",
				spec, sh.Requests, sh.Hits, st.Requests, st.Hits)
		}
		if sh.Evictions != st.Evictions || sh.UsedBytes != st.Used || sh.Docs != st.Docs {
			t.Errorf("%s: shadow occupancy (%d ev, %d bytes, %d docs) != simulator (%d, %d, %d)",
				spec, sh.Evictions, sh.UsedBytes, sh.Docs, st.Evictions, st.Used, st.Docs)
		}
		if st.Requests > 0 && (sh.HR != st.HitRate() || sh.WHR != st.WeightedHitRate()) {
			t.Errorf("%s: shadow HR/WHR %v/%v != simulator %v/%v",
				spec, sh.HR, sh.WHR, st.HitRate(), st.WeightedHitRate())
		}
	}

	// Regret arithmetic: deployed window HR minus the shadow's.
	for _, sh := range rep.Shadows {
		want := rep.Deployed.WindowHR - sh.WindowHR
		if diff := sh.RegretHR - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s: RegretHR = %v, want %v", sh.Policy, sh.RegretHR, want)
		}
	}
}

func TestShadowFleetRejectsBadOptions(t *testing.T) {
	if _, err := NewShadowFleet(ShadowOptions{Capacity: 100}); err == nil {
		t.Error("no policies: want error")
	}
	if _, err := NewShadowFleet(ShadowOptions{Policies: []string{"LRU"}}); err == nil {
		t.Error("no capacity: want error")
	}
	if _, err := NewShadowFleet(ShadowOptions{Policies: []string{"LRU", "NOSUCH"}, Capacity: 100}); err == nil {
		t.Error("unknown policy: want error")
	}
	// "lru" and "LRU" canonicalize to the same policy.
	if _, err := NewShadowFleet(ShadowOptions{Policies: []string{"lru", "LRU"}, Capacity: 100}); err == nil {
		t.Error("duplicate policy after canonicalization: want error")
	}
	// A trailing RANDOM is the universal tiebreak: "SIZE/RANDOM" removes
	// in the order "SIZE" does, though its name keeps the suffix.
	if _, err := NewShadowFleet(ShadowOptions{Policies: []string{"SIZE", "SIZE/RANDOM"}, Capacity: 100}); err == nil {
		t.Error("SIZE and SIZE/RANDOM: want a duplicate error")
	}
}

// TestShadowFleetConcurrentObserve sends events from eight goroutines
// and reads the fleet as soon as they return: each event is applied
// before its observe returns, so nothing is pending.
func TestShadowFleetConcurrentObserve(t *testing.T) {
	const goroutines = 8
	reqs := shadowTrace(50)
	fleet, err := NewShadowFleet(ShadowOptions{
		Policies: []string{"LRU", "SIZE"},
		Capacity: 1 << 20,
	})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range reqs {
				fleet.observe(lookup(reqs[i].URL, reqs[i].Size, i%2 == 0))
			}
		}()
	}
	wg.Wait()
	rep := fleet.Report()
	want := int64(goroutines * len(reqs))
	if rep.Processed != want {
		t.Fatalf("processed %d, want %d", rep.Processed, want)
	}
	for _, sh := range rep.Shadows {
		if sh.Requests != want {
			t.Fatalf("%s saw %d requests, want %d", sh.Policy, sh.Requests, want)
		}
	}
}

// TestShadowFleetReportDuringObserve pins the order property: one
// producer sends a trace's events while another goroutine takes
// Reports in a loop, contending for the fleet's mutex on every event.
// Each shadow must equal a sequential core.Cache replay of the same
// stream. The stream asks for each document twice in a row, and a
// cache holds one, so the sequential replay hits every second request
// and any event applied ahead of an earlier one loses a hit.
func TestShadowFleetReportDuringObserve(t *testing.T) {
	const capacity, seed = 1500, 7
	reqs := make([]trace.Request, 20000)
	for i := range reqs {
		reqs[i] = trace.Request{
			Time: int64(1000 + i),
			URL:  fmt.Sprintf("http://origin.test/pair/%d", i/2),
			Size: 1000,
			Type: trace.Text,
		}
	}
	specs := []string{"LRU", "SIZE", "LFU"}
	var now int64
	fleet, err := NewShadowFleet(ShadowOptions{
		Policies: specs,
		Capacity: capacity,
		Seed:     seed,
		Clock:    func() int64 { return now }, // read by the producer only
	})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	stop := make(chan struct{})
	reported := make(chan struct{})
	go func() {
		defer close(reported)
		for {
			select {
			case <-stop:
				return
			default:
				fleet.Report()
			}
		}
	}()
	for i := range reqs {
		now = reqs[i].Time
		fleet.observe(lookup(reqs[i].URL, reqs[i].Size, false))
	}
	close(stop)
	<-reported
	rep := fleet.Report()
	if rep.Processed != int64(len(reqs)) {
		t.Fatalf("processed %d, want %d", rep.Processed, len(reqs))
	}
	for i, spec := range specs {
		pol, err := policy.Parse(spec, 0)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		sim := core.New(core.Config{Capacity: capacity, Policy: pol, Seed: seed})
		for j := range reqs {
			sim.Access(&reqs[j])
		}
		st, sh := sim.Stats(), rep.Shadows[i]
		if sh.Requests != st.Requests || sh.Hits != st.Hits || sh.Evictions != st.Evictions ||
			sh.UsedBytes != st.Used || sh.Docs != st.Docs {
			t.Errorf("%s: shadow (%d req, %d hits, %d ev, %d bytes, %d docs) != sequential replay (%d, %d, %d, %d, %d)",
				spec, sh.Requests, sh.Hits, sh.Evictions, sh.UsedBytes, sh.Docs,
				st.Requests, st.Hits, st.Evictions, st.Used, st.Docs)
		}
	}
}

func TestShadowFleetHandler(t *testing.T) {
	reqs := shadowTrace(100)
	var now int64
	fleet, err := NewShadowFleet(ShadowOptions{
		Policies: []string{"LRU", "SIZE/NREF"},
		Capacity: 4000,
		Clock:    func() int64 { return now },
	})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	for i := range reqs {
		now = reqs[i].Time
		fleet.observe(lookup(reqs[i].URL, reqs[i].Size, i%2 == 0))
	}

	h := fleet.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/shadow", nil))
	text := rec.Body.String()
	for _, want := range []string{"POLICY", "LRU", "SIZE/NREF", "deployed:", fmt.Sprintf("%d events", len(reqs))} {
		if !strings.Contains(text, want) {
			t.Errorf("text response missing %q:\n%s", want, text)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/shadow?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json Content-Type = %q", ct)
	}
	var rep ShadowReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("json decode: %v\n%s", err, rec.Body.String())
	}
	if len(rep.Shadows) != 2 || rep.Processed != int64(len(reqs)) {
		t.Fatalf("json report = %+v", rep)
	}
}

func TestShadowFleetRegisterMetrics(t *testing.T) {
	reqs := shadowTrace(60)
	var now int64
	fleet, err := NewShadowFleet(ShadowOptions{
		Policies: []string{"LRU", "SIZE/NREF"},
		Capacity: 4000,
		Clock:    func() int64 { return now },
	})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	reg := obs.NewRegistry()
	fleet.RegisterMetrics(reg)
	for i := range reqs {
		now = reqs[i].Time
		fleet.observe(lookup(reqs[i].URL, reqs[i].Size, i%2 == 0))
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"store.shadow.processed",
		"store.shadow.LRU.window_hr_bp",
		"store.shadow.LRU.regret_bp",
		"store.shadow.SIZE-NREF.window_hr_bp", // "/" sanitized for the metric namespace
		"store.shadow.SIZE-NREF.requests",
	} {
		if _, ok := snap[name]; !ok {
			t.Errorf("snapshot missing %q", name)
		}
	}
	if got := snap["store.shadow.processed"]; got != int64(len(reqs)) {
		t.Errorf("store.shadow.processed = %v, want %d", got, len(reqs))
	}
	if got := snap["store.shadow.LRU.requests"]; got != int64(len(reqs)) {
		t.Errorf("store.shadow.LRU.requests = %v, want %d", got, len(reqs))
	}
}

func TestShadowFleetWindowDefaults(t *testing.T) {
	fleet, err := NewShadowFleet(ShadowOptions{Policies: []string{"LRU"}, Capacity: 100})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	if got := fleet.Report().WindowSec; got != obs.DefaultWindow.Seconds() {
		t.Fatalf("report window = %vs, want %v", got, obs.DefaultWindow)
	}
	if got := fleet.Policies(); len(got) != 1 || got[0] != "LRU" {
		t.Fatalf("Policies = %v", got)
	}
}

// TestShadowReplayRule pins how a shadow replays one store event
// against its own Lookup. Each case starts an LFU shadow with the
// document resident at 100 bytes or absent, then applies the event.
func TestShadowReplayRule(t *testing.T) {
	const url = "http://origin.test/doc"
	for _, tc := range []struct {
		name     string
		resident bool
		ev       shadowEvent // what the store did
		hit      bool        // the shadow's Lookup
		inserts  int64       // the shadow's Inserts for the event
		size     int64       // url's resident size afterwards
	}{
		{"agree on a hit", true, shadowEvent{size: 100, looked: true, hit: true}, true, 0, 100},
		{"agree on a miss, then insert", false, shadowEvent{size: 100, looked: true, stored: true}, false, 1, 100},
		// No Insert: the entry the Lookup stamped, NRef 2, stays.
		{"shadow hit where the store missed", true, shadowEvent{size: 200, looked: true, stored: true}, true, 0, 100},
		{"shadow miss where the store hit", false, shadowEvent{size: 100, looked: true, hit: true}, false, 1, 100},
		{"reload", true, shadowEvent{size: 200, stored: true}, false, 1, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fleet, err := NewShadowFleet(ShadowOptions{Policies: []string{"LFU"}, Capacity: 1000, Clock: func() int64 { return 1 }})
			if err != nil {
				t.Fatal(err)
			}
			if tc.resident {
				fleet.observe(&shadowEvent{url: url, size: 100, stored: true})
			}
			c := fleet.shadows[0].cache
			before := c.Stats()
			ev := tc.ev
			ev.url = url
			fleet.observe(&ev)
			after := c.Stats()
			if hit := after.Hits > before.Hits; hit != tc.hit {
				t.Errorf("shadow hit = %v, want %v", hit, tc.hit)
			}
			if n := after.Inserted - before.Inserted; n != tc.inserts {
				t.Errorf("%d Inserts, want %d", n, tc.inserts)
			}
			if !c.Contains(url, tc.size) {
				t.Errorf("%s not resident at %d bytes", url, tc.size)
			}
		})
	}
}

// TestShadowDeployedRowVersusStore requires the deployed policy's own
// shadow row to equal the store's counters after every request: the
// shadows replay the store's calls, so a query-string GET reaches
// neither, a Pragma: no-cache reload is an Insert without a Lookup, a
// failed fetch or a cut transfer is a Lookup without an Insert, and a
// stale hit whose refetch grew the document is a Lookup hit and an
// Insert whose evictions the shadow must repeat.
func TestShadowDeployedRowVersusStore(t *testing.T) {
	var aFetches atomic.Int64
	ots := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/a": // 20 bytes larger on every fetch: 30, 50, 70
			w.Write(make([]byte, 10+20*aFetches.Add(1)))
		case "/fail":
			panic(http.ErrAbortHandler) // reset: no response at all
		case "/cut":
			w.Header().Set("Content-Length", "100")
			w.Write(make([]byte, 10))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler) // cut after 10 of 100 bytes
		default:
			w.Write(make([]byte, 30))
		}
	}))
	defer ots.Close()

	const capacity = 90
	srv := New(NewStore(capacity, nil)) // SIZE
	fleet, err := NewShadowFleet(ShadowOptions{Policies: []string{"SIZE"}, Capacity: capacity})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	srv.Shadow = fleet

	for _, step := range []struct {
		path  string
		hdr   http.Header
		stale bool
		code  int
		cache string
	}{
		{"/a", nil, false, http.StatusOK, "MISS"}, // 30 bytes
		{"/a", nil, false, http.StatusOK, "HIT"},
		{"/b", nil, false, http.StatusOK, "MISS"}, // 30 bytes
		{"/b", nil, false, http.StatusOK, "HIT"},
		{"/q?x=1", nil, false, http.StatusOK, "MISS"},                                     // uncacheable
		{"/a", http.Header{"Pragma": []string{"no-cache"}}, false, http.StatusOK, "MISS"}, // reload: 50 bytes
		{"/fail", nil, false, http.StatusBadGateway, ""},
		{"/cut", nil, false, http.StatusOK, "MISS"},
		{"/a", nil, true, http.StatusOK, "MISS"}, // stale: refetched at 70 bytes, evicting /b
	} {
		req := httptest.NewRequest(http.MethodGet, ots.URL+step.path, nil)
		for k, vs := range step.hdr {
			req.Header[k] = vs
		}
		srv.FreshFor = time.Hour
		if step.stale {
			srv.FreshFor = 0
		}
		rec := httptest.NewRecorder()
		func() {
			defer func() {
				if v := recover(); v != nil && v != http.ErrAbortHandler {
					panic(v)
				}
			}()
			srv.ServeHTTP(rec, req)
		}()
		if rec.Code != step.code || rec.Header().Get("X-Cache") != step.cache {
			t.Fatalf("GET %s: %d X-Cache %q, want %d %q",
				step.path, rec.Code, rec.Header().Get("X-Cache"), step.code, step.cache)
		}
		st := srv.Store().Stats()
		row := fleet.Report().Shadows[0]
		if row.Requests != st.Gets || row.Hits != st.Hits || row.Evictions != st.Evictions {
			t.Fatalf("after GET %s: shadow requests/hits/evictions %d/%d/%d, store %d/%d/%d",
				step.path, row.Requests, row.Hits, row.Evictions, st.Gets, st.Hits, st.Evictions)
		}
	}
	if st := srv.Store().Stats(); st.Gets != 7 || st.Hits != 3 || st.Evictions != 1 {
		t.Fatalf("store gets/hits/evictions %d/%d/%d; want 7/3/1", st.Gets, st.Hits, st.Evictions)
	}
}

// TestShadowFleetConcurrentServe serves 32 goroutines of requests
// through a Server with a fleet attached. A cacheable request's event
// is applied before its ServeHTTP returns, so each goroutine finds at
// least its own events applied after each of its requests, and the
// moment the last ServeHTTP returns the fleet's processed count is the
// server's requests less its uncacheable ones, and the deployed
// policy's row has looked up exactly as often as the store. These are
// counts, the same in any interleaving; hits depend on the order in
// which exits reach the fleet, so they are not compared.
func TestShadowFleetConcurrentServe(t *testing.T) {
	const goroutines, perGoroutine = 32, 40
	ots := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(make([]byte, 100+len(r.URL.Path)*37%900))
	}))
	defer ots.Close()

	reg := obs.NewRegistry()
	srv := New(NewStore(8000, nil)) // SIZE, small enough to evict
	defer srv.CloseIdleConnections()
	srv.RegisterMetrics(reg)
	fleet, err := NewShadowFleet(ShadowOptions{Policies: []string{"LRU", "SIZE", "LFU"}, Capacity: 8000})
	if err != nil {
		t.Fatal(err)
	}
	fleet.RegisterMetrics(reg)
	srv.Shadow = fleet

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var own int64 // this goroutine's cacheable requests served
			for i := 0; i < perGoroutine; i++ {
				target := fmt.Sprintf("%s/doc/%d", ots.URL, (g*7+i*13)%60)
				if i%10 == 9 {
					target += "?q=1" // uncacheable: reaches neither store nor fleet
				}
				req := httptest.NewRequest(http.MethodGet, target, nil)
				if i%10 == 4 {
					req.Header.Set("Pragma", "no-cache") // a reload: an Insert without a Lookup
				}
				srv.ServeHTTP(httptest.NewRecorder(), req)
				if i%10 == 9 {
					continue
				}
				own++
				if got := fleet.Report().Processed; got < own {
					t.Errorf("after %d cacheable requests returned, the fleet has applied %d events", own, got)
					return
				}
			}
		}()
	}
	wg.Wait()

	snap := reg.Snapshot()
	requests, uncacheable := snap["proxy.requests"].(int64), snap["proxy.uncacheable"].(int64)
	if requests != goroutines*perGoroutine || uncacheable != requests/10 {
		t.Fatalf("server counted %d requests, %d uncacheable; want %d, %d",
			requests, uncacheable, goroutines*perGoroutine, goroutines*perGoroutine/10)
	}
	if got := snap["store.shadow.processed"]; got != requests-uncacheable {
		t.Errorf("store.shadow.processed = %v, want requests - uncacheable = %d", got, requests-uncacheable)
	}
	st := srv.Store().Stats()
	rep := fleet.Report()
	for _, row := range rep.Shadows {
		if row.Requests != st.Gets {
			t.Errorf("%s row looked up %d times, the store %d", row.Policy, row.Requests, st.Gets)
		}
	}
}
