package proxy

// The shadow fleet turns the live proxy into its own policy
// experiment. The paper's question — which removal policy maximizes
// HR/WHR — is answered offline by replaying traces through the
// simulator; a deployed proxy can only report the hit rate of the one
// policy it runs, so the operator never learns what SIZE vs LRU vs LFU
// *would have done* on today's traffic. A ShadowFleet maintains K
// metadata-only ghost caches (URL + size entries, no bodies — each a
// core.Cache at the deployed capacity running a candidate policy) and
// feeds them asynchronously off the live request stream: the serving
// path pays exactly one non-blocking send per request into a bounded
// channel (a full channel drops the event, counted, never blocks), and
// a single worker goroutine replays the stream into every shadow.
//
// Each shadow reports lifetime and sliding-window HR/WHR plus
// *regret*: the deployed policy's window hit rate minus the shadow's.
// Negative regret means the shadow policy would have served more hits
// over the recent window — the signal to consider switching. The
// deployed side of that comparison is computed from the same event
// stream the shadows consume (each event carries the deployed
// hit/miss outcome), so queue drops degrade both sides of the regret
// equally and the windows stay like-for-like.
//
// Because a shadow is a real core.Cache, a drop-free run over a fixed
// trace reproduces the simulator's numbers exactly — livebench
// cross-checks a shadow's end-of-run HR against a fresh simulation of
// the same trace with the same policy, tying live observability
// byte-for-byte back to the paper's machinery.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webcache/internal/core"
	"webcache/internal/obs"
	"webcache/internal/policy"
	"webcache/internal/trace"
)

// DefaultShadowQueueSlots sizes the fleet's event channel when the
// options leave it zero: large enough that a worker keeping pace never
// drops, small enough to bound memory at well under a megabyte.
const DefaultShadowQueueSlots = 1 << 14

// shadowEvent is one observed request outcome: what was asked for and
// whether the deployed store had it.
type shadowEvent struct {
	url  string
	size int64
	at   int64
	hit  bool
}

// shadow is one ghost cache: a candidate policy simulated at deployed
// capacity over the live URL/size stream.
type shadow struct {
	name  string
	cache *core.Cache
	hr    *obs.WindowedRate // unit-weighted window hit rate
	whr   *obs.WindowedRate // byte-weighted window hit rate
}

// ShadowOptions configures a ShadowFleet.
type ShadowOptions struct {
	// Policies are the candidate policy specs (policy.Parse syntax:
	// "LRU", "SIZE", "LFU", "SIZE/NREF", ...). One ghost cache per spec.
	Policies []string
	// Capacity is each ghost cache's byte capacity; normally the
	// deployed store's capacity so the comparison is like-for-like.
	Capacity int64
	// QueueSlots sizes the lossy event channel (0 =
	// DefaultShadowQueueSlots).
	// For a drop-free deterministic run, size it to the trace.
	QueueSlots int
	// DayStart anchors day-based policy keys (DAY(ATIME), Pitkow/Recker).
	DayStart int64
	// Seed derives each ghost cache's random tiebreak stream. Every
	// shadow gets the same seed, so policies draw identical random
	// sequences per insert — the simulator's arrangement.
	Seed uint64
	// Clock supplies event timestamps in Unix seconds; livebench injects
	// the simulated trace clock. Nil = wall clock.
	Clock func() int64
}

// ShadowFleet runs the ghost caches. Observe is safe for concurrent
// use and never blocks; everything else happens on the fleet's worker
// goroutine or under its mutex.
type ShadowFleet struct {
	capacity int64
	clock    func() int64
	// stampOnDrain moves the clock read off the hot path: with no
	// injected Clock, Observe leaves events unstamped and the drain
	// stamps each batch with one wall-clock read. An injected Clock
	// (livebench's simulated time) stamps at enqueue, where the caller's
	// notion of "now" is exact.
	stampOnDrain bool

	// events is the lossy queue: Observe sends without blocking and
	// counts a drop when it is full; only drainLocked receives, under
	// mu, so events apply in send order.
	events chan shadowEvent
	notify chan struct{}
	stop   chan struct{}
	done   chan struct{}
	closed atomic.Bool

	dropped   atomic.Int64 // events lost to a full channel
	processed atomic.Int64

	// mu serializes the drain (worker or Flush) with report snapshots;
	// the ghost caches and deployed window rates are only touched under
	// it.
	mu      sync.Mutex
	shadows []*shadow
	depHR   *obs.WindowedRate
	depWHR  *obs.WindowedRate
}

// NewShadowFleet builds the ghost caches and starts the drain worker.
// Duplicate policies (after canonicalization) are rejected: each
// shadow must answer for a distinct candidate.
func NewShadowFleet(opts ShadowOptions) (*ShadowFleet, error) {
	if len(opts.Policies) == 0 {
		return nil, fmt.Errorf("proxy: shadow fleet needs at least one policy")
	}
	if opts.Capacity <= 0 {
		return nil, fmt.Errorf("proxy: shadow fleet needs a positive capacity")
	}
	slots := opts.QueueSlots
	if slots <= 0 {
		slots = DefaultShadowQueueSlots
	}
	clock := opts.Clock
	stampOnDrain := clock == nil
	if clock == nil {
		clock = func() int64 { return time.Now().Unix() }
	}
	f := &ShadowFleet{
		capacity:     opts.Capacity,
		clock:        clock,
		stampOnDrain: stampOnDrain,
		events:       make(chan shadowEvent, slots),
		notify:       make(chan struct{}, 1),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		depHR:        obs.NewWindowedRate(),
		depWHR:       obs.NewWindowedRate(),
	}
	seen := make(map[string]bool, len(opts.Policies))
	for _, spec := range opts.Policies {
		pol, err := policy.Parse(spec, opts.DayStart)
		if err != nil {
			return nil, fmt.Errorf("proxy: shadow policy %q: %w", spec, err)
		}
		name := pol.Name()
		if seen[name] {
			return nil, fmt.Errorf("proxy: duplicate shadow policy %q", name)
		}
		seen[name] = true
		f.shadows = append(f.shadows, &shadow{
			name: name,
			cache: core.New(core.Config{
				Capacity:       opts.Capacity,
				Policy:         pol,
				Seed:           opts.Seed,
				ExcludeDynamic: true,
			}),
			hr:  obs.NewWindowedRate(),
			whr: obs.NewWindowedRate(),
		})
	}
	go f.worker()
	return f, nil
}

// Policies returns the canonical names of the fleet's candidates, in
// fleet order.
func (f *ShadowFleet) Policies() []string {
	names := make([]string, len(f.shadows))
	for i, sh := range f.shadows {
		names[i] = sh.name
	}
	return names
}

// Observe records one request outcome: the URL and response size, and
// whether the deployed store served it as a hit. This is the hot-path
// entry point — one non-blocking channel send and one nudge; a full
// channel drops the event (counted) rather than block the request. In
// wall-clock mode the timestamp is deferred to the drain, so the
// serving path never reads the clock.
func (f *ShadowFleet) Observe(url string, size int64, deployedHit bool) {
	if f.closed.Load() {
		return
	}
	var at int64
	if !f.stampOnDrain {
		at = f.clock()
	}
	select {
	case f.events <- shadowEvent{url: url, size: size, at: at, hit: deployedHit}:
	default:
		f.dropped.Add(1)
		return
	}
	select {
	case f.notify <- struct{}{}:
	default: // worker already has a wakeup pending
	}
}

// enqueuedLocked counts the events that entered the channel: every one
// is either applied or still pending, and only the drain, under f.mu,
// moves one from pending to applied. Caller holds f.mu.
func (f *ShadowFleet) enqueuedLocked() int64 {
	return f.processed.Load() + int64(len(f.events))
}

// worker drains the channel whenever nudged, until Close.
func (f *ShadowFleet) worker() {
	defer close(f.done)
	for {
		select {
		case <-f.notify:
			f.Flush()
		case <-f.stop:
			return
		}
	}
}

// Flush drains every pending event into the shadows now and returns
// the number applied. Livebench calls it before reading end-of-run
// numbers; the worker calls it on every wakeup.
func (f *ShadowFleet) Flush() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.drainLocked()
}

// drainLocked replays the events pending when it starts, in send
// order. Caller holds f.mu.
func (f *ShadowFleet) drainLocked() int {
	n := len(f.events)
	if n == 0 {
		return 0
	}
	var batchAt int64
	if f.stampOnDrain {
		batchAt = f.clock()
	}
	for i := 0; i < n; i++ {
		ev := <-f.events
		if f.stampOnDrain {
			// One clock read per batch: events drained together share a
			// timestamp, which at the trace's one-second resolution is the
			// same coarsening a logged trace would apply.
			ev.at = batchAt
		}
		f.applyLocked(ev)
	}
	f.processed.Add(int64(n))
	return n
}

// applyLocked feeds one event to the deployed window rates and every
// ghost cache.
func (f *ShadowFleet) applyLocked(ev shadowEvent) {
	f.depHR.Observe(ev.hit)
	if ev.hit {
		f.depWHR.Record(ev.size, ev.size)
	} else {
		f.depWHR.Record(0, ev.size)
	}
	req := trace.Request{
		Time:   ev.at,
		URL:    ev.url,
		Status: http.StatusOK,
		Size:   ev.size,
		Type:   trace.ClassifyURL(ev.url),
	}
	for _, sh := range f.shadows {
		hit := sh.cache.Access(&req)
		sh.hr.Observe(hit)
		if hit {
			sh.whr.Record(ev.size, ev.size)
		} else {
			sh.whr.Record(0, ev.size)
		}
	}
}

// Close stops the worker and drains whatever is still queued, so
// end-of-run reports are complete. Idempotent; Observe after Close is
// a no-op.
func (f *ShadowFleet) Close() {
	if f.closed.Swap(true) {
		return
	}
	close(f.stop)
	<-f.done
	f.Flush()
}

// ShadowSnapshot is one ghost cache's report row.
type ShadowSnapshot struct {
	Policy   string `json:"policy"`
	Requests int64  `json:"requests"`
	Hits     int64  `json:"hits"`
	// Lifetime rates, in [0, 1].
	HR  float64 `json:"hr"`
	WHR float64 `json:"whr"`
	// Window rates over the last obs.DefaultWindow.
	WindowHR  float64 `json:"window_hr"`
	WindowWHR float64 `json:"window_whr"`
	// Regret = deployed window rate − shadow window rate: negative means
	// this policy would have out-hit the deployed one recently.
	RegretHR  float64 `json:"regret_hr"`
	RegretWHR float64 `json:"regret_whr"`

	Evictions int64 `json:"evictions"`
	UsedBytes int64 `json:"used_bytes"`
	Docs      int64 `json:"docs"`
}

// ShadowDeployed is the deployed store's side of the regret
// comparison, computed from the same event stream the shadows consume.
type ShadowDeployed struct {
	WindowHR  float64 `json:"window_hr"`
	WindowWHR float64 `json:"window_whr"`
	HR        float64 `json:"hr"`
	WHR       float64 `json:"whr"`
}

// ShadowReport is the fleet's full snapshot.
type ShadowReport struct {
	Capacity  int64            `json:"capacity"`
	WindowSec float64          `json:"window_sec"`
	Enqueued  int64            `json:"enqueued"`
	Processed int64            `json:"processed"`
	Dropped   int64            `json:"dropped"`
	Pending   int64            `json:"pending"`
	Deployed  ShadowDeployed   `json:"deployed"`
	Shadows   []ShadowSnapshot `json:"shadows"`
}

// Report drains pending events and snapshots every shadow.
func (f *ShadowFleet) Report() ShadowReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.drainLocked()
	rep := ShadowReport{
		Capacity:  f.capacity,
		WindowSec: obs.DefaultWindow.Seconds(),
		Enqueued:  f.enqueuedLocked(),
		Processed: f.processed.Load(),
		Dropped:   f.dropped.Load(),
		Pending:   int64(len(f.events)),
		Deployed: ShadowDeployed{
			WindowHR:  f.depHR.Rate(),
			WindowWHR: f.depWHR.Rate(),
			HR:        f.depHR.LifetimeRate(),
			WHR:       f.depWHR.LifetimeRate(),
		},
	}
	for _, sh := range f.shadows {
		st := sh.cache.Stats()
		rep.Shadows = append(rep.Shadows, ShadowSnapshot{
			Policy:    sh.name,
			Requests:  st.Requests,
			Hits:      st.Hits,
			HR:        st.HitRate(),
			WHR:       st.WeightedHitRate(),
			WindowHR:  sh.hr.Rate(),
			WindowWHR: sh.whr.Rate(),
			RegretHR:  rep.Deployed.WindowHR - sh.hr.Rate(),
			RegretWHR: rep.Deployed.WindowWHR - sh.whr.Rate(),
			Evictions: st.Evictions,
			UsedBytes: st.Used,
			Docs:      st.Docs,
		})
	}
	return rep
}

// sanitizeMetricName maps a policy name into the dotted metric
// namespace ("SIZE/NREF" → "SIZE-NREF").
func sanitizeMetricName(name string) string {
	return strings.ReplaceAll(name, "/", "-")
}

// bp converts a rate in [0, 1] to integer basis points, the registry's
// int64 currency for rates (5037 = 50.37%).
func bp(rate float64) int64 { return int64(rate*10000 + 0.5) }

// RegisterMetrics exposes the fleet on reg under store.shadow.*:
// queue health as computed gauges (drops, pending, enqueued,
// processed) and, per shadow, window HR/WHR/regret in basis points
// plus occupancy — all evaluated at scrape time, no refresh ticker.
// Rates read the windowed state under f.mu; the registry evaluates
// functions while holding its own mutex, and the fleet never calls
// into the registry, so the lock order is always registry → fleet.
func (f *ShadowFleet) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("store.shadow.drops", f.dropped.Load)
	reg.GaugeFunc("store.shadow.pending", func() int64 { return int64(len(f.events)) })
	reg.GaugeFunc("store.shadow.enqueued", func() int64 {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.enqueuedLocked()
	})
	reg.GaugeFunc("store.shadow.processed", func() int64 { return f.processed.Load() })
	for _, sh := range f.shadows {
		sh := sh
		prefix := "store.shadow." + sanitizeMetricName(sh.name)
		reg.GaugeFunc(prefix+".window_hr_bp", func() int64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return bp(sh.hr.Rate())
		})
		reg.GaugeFunc(prefix+".window_whr_bp", func() int64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return bp(sh.whr.Rate())
		})
		reg.GaugeFunc(prefix+".regret_bp", func() int64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return bp(f.depHR.Rate()) - bp(sh.hr.Rate())
		})
		reg.GaugeFunc(prefix+".requests", func() int64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return sh.cache.Stats().Requests
		})
		reg.GaugeFunc(prefix+".hits", func() int64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return sh.cache.Stats().Hits
		})
		reg.GaugeFunc(prefix+".evictions", func() int64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return sh.cache.Stats().Evictions
		})
		reg.GaugeFunc(prefix+".used_bytes", func() int64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return sh.cache.Used()
		})
		reg.GaugeFunc(prefix+".docs", func() int64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return sh.cache.Stats().Docs
		})
	}
}

// Handler returns the /shadow admin endpoint: a sorted text table by
// default, the full ShadowReport as JSON with ?format=json.
func (f *ShadowFleet) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := f.Report()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(rep)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "shadow fleet: %d policies at capacity %d, window %s\n",
			len(rep.Shadows), rep.Capacity, obs.DefaultWindow)
		fmt.Fprintf(w, "queue: enqueued %d  processed %d  dropped %d  pending %d\n",
			rep.Enqueued, rep.Processed, rep.Dropped, rep.Pending)
		fmt.Fprintf(w, "deployed: window HR %.2f%%  window WHR %.2f%%  lifetime HR %.2f%%  WHR %.2f%%\n\n",
			rep.Deployed.WindowHR*100, rep.Deployed.WindowWHR*100,
			rep.Deployed.HR*100, rep.Deployed.WHR*100)
		fmt.Fprintf(w, "%-18s %10s %10s %9s %9s %9s %9s %8s %12s\n",
			"POLICY", "REQS", "HITS", "winHR%", "winWHR%", "regHR", "regWHR", "DOCS", "USED")
		rows := append([]ShadowSnapshot(nil), rep.Shadows...)
		// Best recent performer first: most negative regret = biggest win
		// over the deployed policy.
		sort.Slice(rows, func(i, j int) bool { return rows[i].RegretHR < rows[j].RegretHR })
		for _, row := range rows {
			fmt.Fprintf(w, "%-18s %10d %10d %9.2f %9.2f %+9.4f %+9.4f %8d %12d\n",
				row.Policy, row.Requests, row.Hits,
				row.WindowHR*100, row.WindowWHR*100,
				row.RegretHR, row.RegretWHR,
				row.Docs, row.UsedBytes)
		}
	})
}
