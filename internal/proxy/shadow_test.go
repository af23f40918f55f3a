package proxy

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"webcache/internal/core"
	"webcache/internal/obs"
	"webcache/internal/policy"
	"webcache/internal/trace"
)

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
		Policies:   specs,
		Capacity:   capacity,
		QueueSlots: len(reqs) + 64, // drop-free
		Seed:       seed,
		Clock:      func() int64 { return now },
	})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	defer fleet.Close()

	for i := range reqs {
		now = reqs[i].Time
		// The deployed outcome is irrelevant to shadow-vs-sim equality;
		// alternate it to exercise both deployed paths.
		fleet.Observe(reqs[i].URL, reqs[i].Size, i%3 == 0)
	}
	fleet.Flush()
	rep := fleet.Report()

	if rep.Dropped != 0 {
		t.Fatalf("drop-free run dropped %d events", rep.Dropped)
	}
	if rep.Enqueued != int64(len(reqs)) || rep.Processed < rep.Enqueued {
		t.Fatalf("enqueued %d processed %d, want %d both", rep.Enqueued, rep.Processed, len(reqs))
	}

	// Each shadow must agree exactly with a fresh simulator run of the
	// same policy over the same trace — the cross-check invariant.
	for i, spec := range specs {
		pol, err := policy.Parse(spec, 0)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		sim := core.New(core.Config{
			Capacity:       capacity,
			Policy:         pol,
			Seed:           seed,
			ExcludeDynamic: true,
		})
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
		if st.Requests > 0 && sh.HR != st.HitRate() {
			t.Errorf("%s: shadow HR %v != simulator %v", spec, sh.HR, st.HitRate())
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
}

func TestShadowFleetLossyQueue(t *testing.T) {
	// A 4-slot ring with the worker wedged behind mu must drop the
	// overflow and count it, without blocking Observe.
	fleet, err := NewShadowFleet(ShadowOptions{
		Policies:   []string{"LRU"},
		Capacity:   1 << 20,
		QueueSlots: 4,
		Clock:      func() int64 { return 0 },
	})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	defer fleet.Close()

	fleet.mu.Lock() // wedge the drain
	for i := 0; i < 64; i++ {
		fleet.Observe(fmt.Sprintf("http://x.test/%d", i), 100, false)
	}
	dropped := fleet.dropped.Load()
	fleet.mu.Unlock()

	if dropped < 60 {
		t.Fatalf("dropped = %d, want >= 60 with a wedged 4-slot ring", dropped)
	}
	fleet.Flush()
	rep := fleet.Report()
	if rep.Enqueued+rep.Dropped != 64 {
		t.Fatalf("enqueued %d + dropped %d != 64", rep.Enqueued, rep.Dropped)
	}
}

func TestShadowFleetConcurrentObserve(t *testing.T) {
	reqs := shadowTrace(50)
	fleet, err := NewShadowFleet(ShadowOptions{
		Policies:   []string{"LRU", "SIZE"},
		Capacity:   1 << 20,
		QueueSlots: 1 << 12,
	})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range reqs {
				fleet.Observe(reqs[i].URL, reqs[i].Size, i%2 == 0)
			}
		}()
	}
	wg.Wait()
	fleet.Close() // final drain
	rep := fleet.Report()
	if rep.Processed != rep.Enqueued {
		t.Fatalf("processed %d != enqueued %d after Close", rep.Processed, rep.Enqueued)
	}
	for _, sh := range rep.Shadows {
		if sh.Requests != rep.Processed {
			t.Fatalf("%s saw %d requests, want %d", sh.Policy, sh.Requests, rep.Processed)
		}
	}
	// Observe after Close is a no-op, not a panic or a queue write.
	fleet.Observe("http://late.test/x", 10, true)
	if got := fleet.Report().Enqueued; got != rep.Enqueued {
		t.Fatalf("Observe after Close enqueued an event: %d != %d", got, rep.Enqueued)
	}
	fleet.Close() // idempotent
}

// TestShadowFleetFlushDuringObserve pins the send-order property: one
// producer Observes a trace while another goroutine Flushes in a loop,
// racing the worker for every batch. After Close, each shadow must
// equal a sequential core.Cache replay of the same stream. The stream
// asks for each document twice in a row, and a cache holds one, so
// the sequential replay hits every second request and any drain that
// applies an event ahead of an earlier one loses a hit.
func TestShadowFleetFlushDuringObserve(t *testing.T) {
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
		Policies:   specs,
		Capacity:   capacity,
		QueueSlots: len(reqs), // drop-free
		Seed:       seed,
		Clock:      func() int64 { return now }, // read by the producer only
	})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
				fleet.Flush()
			}
		}
	}()
	for i := range reqs {
		now = reqs[i].Time
		fleet.Observe(reqs[i].URL, reqs[i].Size, false)
	}
	close(stop)
	<-flushed
	fleet.Close()
	rep := fleet.Report()
	if rep.Dropped != 0 || rep.Processed != int64(len(reqs)) {
		t.Fatalf("dropped %d, processed %d; want 0 and %d", rep.Dropped, rep.Processed, len(reqs))
	}
	for i, spec := range specs {
		pol, err := policy.Parse(spec, 0)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		sim := core.New(core.Config{Capacity: capacity, Policy: pol, Seed: seed, ExcludeDynamic: true})
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
		Policies:   []string{"LRU", "SIZE/NREF"},
		Capacity:   4000,
		QueueSlots: len(reqs) + 8,
		Clock:      func() int64 { return now },
	})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	defer fleet.Close()
	for i := range reqs {
		now = reqs[i].Time
		fleet.Observe(reqs[i].URL, reqs[i].Size, i%2 == 0)
	}
	fleet.Flush()

	h := fleet.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/shadow", nil))
	text := rec.Body.String()
	for _, want := range []string{"POLICY", "LRU", "SIZE/NREF", "deployed:", "queue:"} {
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
	if len(rep.Shadows) != 2 || rep.Enqueued != int64(len(reqs)) {
		t.Fatalf("json report = %+v", rep)
	}
}

func TestShadowFleetRegisterMetrics(t *testing.T) {
	reqs := shadowTrace(60)
	var now int64
	fleet, err := NewShadowFleet(ShadowOptions{
		Policies:   []string{"LRU", "SIZE/NREF"},
		Capacity:   4000,
		QueueSlots: len(reqs) + 8,
		Clock:      func() int64 { return now },
	})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	defer fleet.Close()
	reg := obs.NewRegistry()
	fleet.RegisterMetrics(reg)
	for i := range reqs {
		now = reqs[i].Time
		fleet.Observe(reqs[i].URL, reqs[i].Size, i%2 == 0)
	}
	fleet.Flush()

	snap := reg.Snapshot()
	for _, name := range []string{
		"store.shadow.drops",
		"store.shadow.pending",
		"store.shadow.enqueued",
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
	if got := snap["store.shadow.enqueued"]; got != int64(len(reqs)) {
		t.Errorf("store.shadow.enqueued = %v, want %d", got, len(reqs))
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
	defer fleet.Close()
	if got := fleet.Report().WindowSec; got != obs.DefaultWindow.Seconds() {
		t.Fatalf("report window = %vs, want %v", got, obs.DefaultWindow)
	}
	if got := fleet.Policies(); len(got) != 1 || got[0] != "LRU" {
		t.Fatalf("Policies = %v", got)
	}
}

// TestShadowDeployedRowVersusStore pins how the deployed policy's own
// shadow row differs from the store on one stream. The shadows see
// every successful GET through Access; the store sees only the
// lookups of cacheable requests. So an uncacheable query-string GET
// and a Pragma: no-cache reload each add a shadow request and no store
// get, and the reload of a resident URL is a shadow hit.
func TestShadowDeployedRowVersusStore(t *testing.T) {
	ots := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "body of "+r.URL.Path)
	}))
	defer ots.Close()

	const capacity = 1 << 20
	srv := New(NewStore(capacity, nil)) // SIZE
	fleet, err := NewShadowFleet(ShadowOptions{Policies: []string{"SIZE"}, Capacity: capacity})
	if err != nil {
		t.Fatalf("NewShadowFleet: %v", err)
	}
	defer fleet.Close()
	srv.Shadow = fleet

	get := func(path string, hdr http.Header) string {
		req := httptest.NewRequest(http.MethodGet, ots.URL+path, nil)
		for k, vs := range hdr {
			req.Header[k] = vs
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		return rec.Header().Get("X-Cache")
	}
	for _, step := range []struct {
		path  string
		hdr   http.Header
		cache string
	}{
		{"/a", nil, "MISS"},
		{"/a", nil, "HIT"},
		{"/b", nil, "MISS"},
		{"/b", nil, "HIT"},
		{"/q?x=1", nil, "MISS"}, // uncacheable
		{"/a", http.Header{"Pragma": []string{"no-cache"}}, "MISS"}, // reload of a resident URL
	} {
		if got := get(step.path, step.hdr); got != step.cache {
			t.Fatalf("GET %s: X-Cache %q, want %q", step.path, got, step.cache)
		}
	}

	st := srv.Store().Stats()
	rep := fleet.Report()
	row := rep.Shadows[0]
	if st.Gets != 4 || st.Hits != 2 {
		t.Fatalf("store gets %d, hits %d; want 4, 2", st.Gets, st.Hits)
	}
	if row.Requests != st.Gets+2 {
		t.Errorf("shadow requests %d, want store gets %d + 2", row.Requests, st.Gets)
	}
	if row.Hits != st.Hits+1 {
		t.Errorf("shadow hits %d, want store hits %d + 1", row.Hits, st.Hits)
	}
}
