package proxy

// The shadow fleet turns the live proxy into its own policy
// experiment. A deployed proxy can only report the hit rate of the one
// policy it runs; the paper's question — which removal policy
// maximizes HR/WHR — asks what SIZE vs LRU vs LFU *would have done* on
// the same traffic. A ShadowFleet keeps K metadata-only ghost caches
// (each a core.Cache at the deployed capacity running a candidate
// policy, no bodies) and feeds them what the store did: each cacheable
// request's exit applies its event to every shadow, under the fleet's
// mutex, on the request's own goroutine. Nothing is queued, so nothing
// is lost, and the fleet costs no goroutine; the price is K ghost
// Lookups and Inserts on the serving path (DESIGN.md §13). A shadow
// repeats the store's Lookup, if it ran, then its Insert, if it ran,
// unless the shadow's Lookup disagreed: then a shadow that missed
// inserts at the size the store served, and one that hit inserts
// nothing. So the deployed policy's shadow is the store, request for
// request, and no shadow sees a request the store did not.
//
// Each shadow reports lifetime and window HR/WHR plus *regret*: the
// deployed policy's window hit rate minus the shadow's; negative
// regret means the candidate would have out-hit the deployed policy
// recently. The deployed side comes from the same events (each carries
// the store's lookup outcome). Over a fixed trace served one request
// at a time the shadows reproduce the simulator's hits exactly, which
// livebench -shadow cross-checks.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"webcache/internal/core"
	"webcache/internal/obs"
	"webcache/internal/policy"
)

// shadowEvent is what the store did for one request: whether its
// Lookup ran (a client reload skips it) and hit, whether its Insert
// ran, and the size it served.
type shadowEvent struct {
	url    string
	size   int64
	looked bool
	hit    bool
	stored bool
}

// rates are one side's hit rates over the events that ran a Lookup:
// unit-weighted (HR) and byte-weighted (WHR), windowed and lifetime.
type rates struct{ hr, whr *obs.WindowedRate }

func newRates() rates { return rates{obs.NewWindowedRate(), obs.NewWindowedRate()} }

// observe counts one lookup of size bytes at nowNs.
func (r rates) observe(hit bool, size, nowNs int64) {
	r.hr.Observe(hit, nowNs)
	if hit {
		r.whr.Record(size, size, nowNs)
	} else {
		r.whr.Record(0, size, nowNs)
	}
}

// shadow is one ghost cache: a candidate policy at the deployed
// capacity, replaying the store's calls.
type shadow struct {
	name  string
	cache *core.Cache
	rates
}

// ShadowOptions configures a ShadowFleet.
type ShadowOptions struct {
	// Policies are the candidate policy specs (policy.Parse syntax:
	// "LRU", "SIZE", "LFU", "SIZE/NREF", ...). One ghost cache per spec.
	Policies []string
	// Capacity is each ghost cache's byte capacity; normally the
	// deployed store's capacity so the comparison is like-for-like.
	Capacity int64
	// DayStart anchors day-based policy keys (DAY(ATIME), Pitkow/Recker).
	DayStart int64
	// Seed derives each ghost cache's random tiebreak stream. Every
	// shadow gets the same seed, so policies draw identical random
	// sequences per insert — the simulator's arrangement.
	Seed uint64
	// Clock stamps the ghost caches' entries in Unix seconds; livebench
	// injects the simulated trace clock. Nil = wall clock. The window
	// rates always run on the wall clock.
	Clock func() int64
}

// ShadowFleet runs the ghost caches. Its feed, observe, is safe for
// concurrent use: it and every reader serialize on the fleet's mutex.
type ShadowFleet struct {
	capacity int64
	clock    func() int64 // nil: the wall clock

	// mu serializes applying events with report snapshots; the ghost
	// caches, the rates and processed are only touched under it.
	mu        sync.Mutex
	processed int64 // events applied
	shadows   []*shadow
	dep       rates
}

// NewShadowFleet builds the ghost caches. Policies that apply one
// removal order (policy.OrderName: "lru" and "LRU", "SIZE" and
// "SIZE/RANDOM") are rejected as duplicates: each shadow must answer
// for a distinct candidate.
func NewShadowFleet(opts ShadowOptions) (*ShadowFleet, error) {
	if len(opts.Policies) == 0 {
		return nil, fmt.Errorf("proxy: shadow fleet needs at least one policy")
	}
	if opts.Capacity <= 0 {
		return nil, fmt.Errorf("proxy: shadow fleet needs a positive capacity")
	}
	f := &ShadowFleet{
		capacity: opts.Capacity,
		clock:    opts.Clock,
		dep:      newRates(),
	}
	seen := make(map[string]string, len(opts.Policies))
	for _, spec := range opts.Policies {
		pol, err := policy.Parse(spec, opts.DayStart)
		if err != nil {
			return nil, fmt.Errorf("proxy: shadow policy %q: %w", spec, err)
		}
		name := pol.Name()
		order := policy.OrderName(name)
		if first, ok := seen[order]; ok {
			return nil, fmt.Errorf("proxy: shadow policy %q duplicates %q", name, first)
		}
		seen[order] = name
		f.shadows = append(f.shadows, &shadow{
			name: name,
			// Configured as the store's cache is, so the deployed policy's
			// shadow is the store.
			cache: core.New(core.Config{Capacity: opts.Capacity, Policy: pol, Seed: opts.Seed}),
			rates: newRates(),
		})
	}
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

// observe applies what the store did for one request, on the caller's
// goroutine: one wall-clock read stamps every window rate, and the
// ghost caches' entries take the same read's second unless a Clock was
// injected. The clock is read under f.mu, so events apply in the order
// of their stamps.
func (f *ShadowFleet) observe(ev *shadowEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	at := now.Unix()
	if f.clock != nil {
		at = f.clock()
	}
	f.applyLocked(ev, at, now.UnixNano())
	f.processed++
}

// applyLocked feeds one event to the deployed rates and replays it on
// every ghost cache: the store's Lookup, if it ran, then its Insert,
// if it ran and the shadow's Lookup agreed with the store's. Where they
// disagree, a shadow that missed inserts at the served size and one
// that hit inserts nothing. The ghost caches run at at (Unix seconds),
// the rates at nowNs. Caller holds f.mu.
func (f *ShadowFleet) applyLocked(ev *shadowEvent, at, nowNs int64) {
	if ev.looked {
		f.dep.observe(ev.hit, ev.size, nowNs)
	}
	for _, sh := range f.shadows {
		hit := ev.looked && sh.cache.Lookup(ev.url, at)
		insert := ev.stored
		if ev.looked {
			sh.observe(hit, ev.size, nowNs)
			if hit != ev.hit {
				insert = !hit
			}
		}
		if insert {
			sh.cache.Insert(ev.url, ev.size, at)
		}
	}
}

// ShadowSnapshot is one ghost cache's report row. Requests counts its
// Lookups, so the deployed policy's row reads the store's Gets.
type ShadowSnapshot struct {
	Policy   string `json:"policy"`
	Requests int64  `json:"requests"`
	Hits     int64  `json:"hits"`
	// Lifetime rates, in [0, 1]: a Lookup miss requests no bytes in
	// core.Stats, so WHR comes from the served sizes the events carry.
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
// comparison, computed from the same events the shadows consume.
type ShadowDeployed struct {
	WindowHR  float64 `json:"window_hr"`
	WindowWHR float64 `json:"window_whr"`
	HR        float64 `json:"hr"`
	WHR       float64 `json:"whr"`
}

// ShadowReport is the fleet's full snapshot. Processed counts the
// events applied: every cacheable request that has finished.
type ShadowReport struct {
	Capacity  int64            `json:"capacity"`
	WindowSec float64          `json:"window_sec"`
	Processed int64            `json:"processed"`
	Deployed  ShadowDeployed   `json:"deployed"`
	Shadows   []ShadowSnapshot `json:"shadows"`
}

// Report snapshots every shadow, with the window rates read at one
// wall-clock time.
func (f *ShadowFleet) Report() ShadowReport {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now().UnixNano()
	rep := ShadowReport{
		Capacity:  f.capacity,
		WindowSec: obs.DefaultWindow.Seconds(),
		Processed: f.processed,
		Deployed: ShadowDeployed{
			WindowHR:  f.dep.hr.Rate(now),
			WindowWHR: f.dep.whr.Rate(now),
			HR:        f.dep.hr.LifetimeRate(),
			WHR:       f.dep.whr.LifetimeRate(),
		},
	}
	for _, sh := range f.shadows {
		st := sh.cache.Stats()
		windowHR, windowWHR := sh.hr.Rate(now), sh.whr.Rate(now)
		rep.Shadows = append(rep.Shadows, ShadowSnapshot{
			Policy:    sh.name,
			Requests:  st.Requests,
			Hits:      st.Hits,
			HR:        sh.hr.LifetimeRate(),
			WHR:       sh.whr.LifetimeRate(),
			WindowHR:  windowHR,
			WindowWHR: windowWHR,
			RegretHR:  rep.Deployed.WindowHR - windowHR,
			RegretWHR: rep.Deployed.WindowWHR - windowWHR,
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

// RegisterMetrics exposes the fleet on reg under store.shadow.*: the
// events applied (processed) and, per shadow, window HR/WHR/regret in
// basis points plus occupancy — all evaluated at scrape time, no
// refresh ticker. Every gauge reads under f.mu; the registry evaluates
// functions while holding its own mutex, and the fleet never calls
// into the registry, so the lock order is always registry → fleet.
func (f *ShadowFleet) RegisterMetrics(reg *obs.Registry) {
	locked := func(read func() int64) func() int64 {
		return func() int64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return read()
		}
	}
	rate := func(r *obs.WindowedRate) int64 { return bp(r.Rate(time.Now().UnixNano())) }
	reg.GaugeFunc("store.shadow.processed", locked(func() int64 { return f.processed }))
	for _, sh := range f.shadows {
		prefix := "store.shadow." + sanitizeMetricName(sh.name)
		reg.GaugeFunc(prefix+".window_hr_bp", locked(func() int64 { return rate(sh.hr) }))
		reg.GaugeFunc(prefix+".window_whr_bp", locked(func() int64 { return rate(sh.whr) }))
		reg.GaugeFunc(prefix+".regret_bp", locked(func() int64 { return rate(f.dep.hr) - rate(sh.hr) }))
		reg.GaugeFunc(prefix+".requests", locked(func() int64 { return sh.cache.Stats().Requests }))
		reg.GaugeFunc(prefix+".hits", locked(func() int64 { return sh.cache.Stats().Hits }))
		reg.GaugeFunc(prefix+".evictions", locked(func() int64 { return sh.cache.Stats().Evictions }))
		reg.GaugeFunc(prefix+".used_bytes", locked(sh.cache.Used))
		reg.GaugeFunc(prefix+".docs", locked(func() int64 { return sh.cache.Stats().Docs }))
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
		fmt.Fprintf(w, "shadow fleet: %d policies at capacity %d, window %s, %d events\n",
			len(rep.Shadows), rep.Capacity, obs.DefaultWindow, rep.Processed)
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
