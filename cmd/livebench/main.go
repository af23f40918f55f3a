// Command livebench validates the simulator against the real system: it
// replays a synthetic workload twice — once through the trace-driven
// simulator and once over actual HTTP through the live caching proxy
// against a synthetic origin server — with the same removal policy and
// capacity, and compares the measured hit rates.
//
// Usage:
//
//	livebench -workload BL -scale 0.01 -policy SIZE -fraction 0.1
//	livebench -workload C -policy SIZE -shadow "LRU,LFU,SIZE/NREF"   # ghost caches, each cross-checked vs the simulator
//
// The workload is generated without size changes so both systems see the
// same consistency picture; the proxy's freshness window is effectively
// infinite, making its hit rule (URL cached) coincide with the
// simulator's (URL+size match); and the live store is seeded with the
// simulated cache's tiebreak stream, so even tie-heavy policies (LRU at
// one-second resolution, LFU) evict identically. The expected delta is
// exactly zero.
//
// With -metrics, both replays report through one obs.Registry — the
// simulated cache's core.Stats under sim.*, the live proxy and store
// under proxy.* / store.* — and the run ends with the registry exposition
// plus an event-level profile (eviction ages, occupancy) of the live
// store, so the counter cross-check mirrors the hit-rate delta.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"time"

	"webcache/internal/analysis"
	"webcache/internal/core"
	"webcache/internal/obs"
	"webcache/internal/origin"
	"webcache/internal/policy"
	"webcache/internal/proxy"
	"webcache/internal/sim"
	"webcache/internal/trace"
	"webcache/internal/workload"
)

// eventRingSize bounds the live store's event trace under -metrics;
// livebench replays are small, so this usually holds the whole run.
const eventRingSize = 1 << 16

func main() {
	var (
		wl       = flag.String("workload", "BL", "workload: U, G, C, BR, BL")
		scale    = flag.Float64("scale", 0.01, "workload scale (live replay is one HTTP request per trace line)")
		polSpec  = flag.String("policy", "SIZE", "removal policy for both systems")
		fraction = flag.Float64("fraction", 0.10, "cache size as a fraction of MaxNeeded")
		seed     = flag.Uint64("seed", 42, "workload seed")
		metrics  = flag.Bool("metrics", false, "report both replays through a shared metric registry and print it")
		shadow   = flag.String("shadow", "", "comma-separated candidate policies to run as ghost caches beside the live store; each is cross-checked exactly against a fresh simulator replay")
		traceN   = flag.Int("trace-sample", 0, "trace every nth live request's phase timeline (0 = off)")
		traceOut = flag.String("trace-out", "", "write the kept request span trees (plus the event ring under -metrics) as Chrome trace-event JSON to this file; implies -trace-sample 1 when unset")
	)
	flag.Parse()
	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	sample := *traceN
	if *traceOut != "" && sample == 0 {
		sample = 1
	}
	if err := run(*wl, *scale, *polSpec, *fraction, *seed, *shadow, sample, *traceOut, os.Stdout, reg); err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		os.Exit(1)
	}
}

// run replays the workload through both systems. When
// reg is non-nil both replays report into it and the run ends with the
// registry exposition and the live store's event profile. shadow, when
// non-empty, names candidate policies (comma-separated) to run as a
// ghost-cache fleet beside the live store; each shadow's end-of-run
// numbers are cross-checked exactly against a fresh simulator replay
// of the same trace — live observability must agree with the paper's
// simulator to the request. traceSample > 0 attaches an obs.Tracer to
// the live proxy (every nth request records its phase timeline); when
// traceOut is non-empty the kept span trees — merged with the event
// ring under -metrics — are written there as Chrome trace-event JSON,
// so a sampled miss renders parse → store.get → origin TTFB →
// admission → eviction spans in Perfetto next to residency spans.
func run(wl string, scale float64, polSpec string, fraction float64, seed uint64, shadow string, traceSample int, traceOut string, out io.Writer, reg *obs.Registry) error {
	cfg, err := workload.ByName(wl, seed)
	if err != nil {
		return err
	}
	cfg.Scale = scale
	// Align consistency semantics between the two systems: no document
	// modifications, no zero-size log noise.
	cfg.SizeChangeProb = 0
	cfg.ZeroSizeProb = 0
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		return err
	}

	base := sim.Experiment1(tr, seed+1)
	capacity := int64(fraction * float64(base.MaxNeeded))
	fmt.Fprintf(out, "workload %s: %d requests, MaxNeeded %.1f MB, cache %.1f MB, policy %s\n",
		tr.Name, len(tr.Requests), float64(base.MaxNeeded)/1e6, float64(capacity)/1e6, polSpec)

	// --- Simulated run (the proxy never caches dynamic documents, so
	// the simulator must not either).
	simPol, err := policy.Parse(polSpec, tr.Start)
	if err != nil {
		return err
	}
	simCfg := core.Config{
		Capacity:       capacity,
		Policy:         simPol,
		Seed:           seed + 2,
		ExcludeDynamic: true,
	}
	simCache := core.New(simCfg)
	if reg != nil {
		proxy.RegisterCacheStats(reg, "sim", simCache.Stats)
	}
	for i := range tr.Requests {
		simCache.Access(&tr.Requests[i])
	}
	simStats := simCache.Stats()
	fmt.Fprintf(out, "simulated: HR %6.2f%%  WHR %6.2f%%  (%d evictions)\n",
		100*simStats.HitRate(), 100*simStats.WeightedHitRate(), simStats.Evictions)

	// --- Live run, with the same tiebreak stream as the simulated cache.
	var ring *obs.EventRing
	if reg != nil {
		ring = obs.NewEventRing(eventRingSize)
	}
	var shadowSpecs []string
	if shadow != "" {
		for _, s := range strings.Split(shadow, ",") {
			if s = strings.TrimSpace(s); s != "" {
				shadowSpecs = append(shadowSpecs, s)
			}
		}
	}
	var tracer *obs.Tracer
	if traceSample > 0 {
		// Real wall clock: the spans time actual HTTP work, even though
		// the store's eviction clock is driven by simulated time.
		tracer = obs.NewTracer(obs.TracerOptions{SampleEvery: traceSample})
	}
	liveHits, liveBytesHit, liveBytes, fleet, err := replayLive(tr, polSpec, capacity, seed+2, shadowSpecs, tracer, out, reg, ring)
	if err != nil {
		return err
	}
	liveHR := float64(liveHits) / float64(len(tr.Requests))
	liveWHR := float64(liveBytesHit) / float64(liveBytes)
	fmt.Fprintf(out, "live:      HR %6.2f%%  WHR %6.2f%%\n", 100*liveHR, 100*liveWHR)
	fmt.Fprintf(out, "delta:     HR %+.2f points  WHR %+.2f points\n",
		100*(liveHR-simStats.HitRate()), 100*(liveWHR-simStats.WeightedHitRate()))

	if fleet != nil {
		if err := crossCheckShadows(tr, capacity, seed+2, fleet, out); err != nil {
			return err
		}
	}

	if tracer != nil {
		st := tracer.Stats()
		fmt.Fprintf(out, "tracing:   sampled %d, kept %d (%d flagged), discarded %d\n",
			st.Sampled, st.Kept, st.Flagged, st.Discarded)
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				return err
			}
			if err := obs.WriteCombinedChromeTrace(f, ring, tracer); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(out, "tracing:   wrote Chrome trace to %s\n", traceOut)
		}
	}

	if reg != nil {
		// The counter-level cross-check: the simulated cache's counts and
		// the live store's are published in one registry, so agreement is
		// visible without rederiving rates.
		snap := reg.Snapshot()
		fmt.Fprintf(out, "registry:  sim hits %d / live hits %d, sim evictions %d / live evictions %d\n",
			snap["sim.hits"], snap["store.hits"], snap["sim.evictions"], snap["store.evictions"])
		fmt.Fprintln(out, "--- registry ---")
		if err := reg.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out, "--- live store event profile ---")
		if err := analysis.AnalyzeEvents(ring).WriteReport(out); err != nil {
			return err
		}
	}
	return nil
}

// replayLive drives every trace request through a real proxy + origin.
// cacheSeed matches the simulated cache's seed so per-entry tiebreak
// values coincide and tie-heavy policies (LRU, LFU) evict identically.
// When reg is non-nil, the proxy and its store report into it (and the
// store's events into ring). shadowSpecs, when non-empty, attaches a
// ghost-cache fleet fed off the proxy's request stream — queue sized
// to the trace so the replay is drop-free, clock and seed shared with
// the simulated side so the fleet's caches replay deterministically;
// the returned fleet is already closed (fully drained). tracer, when
// non-nil, records sampled requests' phase timelines.
func replayLive(tr *trace.Trace, polSpec string, capacity int64, cacheSeed uint64, shadowSpecs []string, tracer *obs.Tracer, out io.Writer, reg *obs.Registry, ring *obs.EventRing) (hits, bytesHit, bytesTotal int64, fleet *proxy.ShadowFleet, err error) {
	org := origin.FromTrace(tr)
	originTS := httptest.NewServer(org)
	defer originTS.Close()

	livePol, err := policy.Parse(polSpec, tr.Start)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	store := proxy.NewStore(capacity, livePol)
	// The simulated cache's seed, so the per-entry random tiebreak
	// sequences of the two systems are identical.
	store.SetSeed(cacheSeed)
	// Drive the store's clock from the trace so time-based policies see
	// simulation time, not wall time.
	var simNow int64
	store.SetClock(func() time.Time { return time.Unix(simNow, 0) })

	srv := proxy.New(store)
	srv.Tracer = tracer
	if len(shadowSpecs) > 0 {
		fleet, err = proxy.NewShadowFleet(proxy.ShadowOptions{
			Policies:   shadowSpecs,
			Capacity:   capacity,
			QueueSlots: len(tr.Requests) + 64, // drop-free: every request fits
			DayStart:   tr.Start,
			Seed:       cacheSeed, // same rng stream as the simulated cache
			Clock:      func() int64 { return simNow },
		})
		if err != nil {
			return 0, 0, 0, nil, err
		}
		defer fleet.Close()
		srv.Shadow = fleet
		fmt.Fprintf(out, "live store: shadowing %s\n", strings.Join(fleet.Policies(), ", "))
	}
	if reg != nil {
		srv.RegisterMetrics(reg)
		store.RegisterMetrics(reg)
		hooks, _ := proxy.StoreHooks(reg, ring)
		store.SetHooks(hooks)
	}
	srv.FreshFor = 100 * 365 * 24 * time.Hour // never revalidate
	srv.MaxObjectBytes = 64 << 20
	upstream := origin.RewriteTransport(originTS.Listener.Addr().String())
	defer upstream.CloseIdleConnections()
	srv.Transport = upstream
	// A miss is stored after its body reaches the client, and the store
	// reads simNow; the next request may move the clock only once the
	// handler has returned.
	handled := make(chan struct{}, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, 0, nil, err
	}
	traffic := proxy.NewConnServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() { handled <- struct{}{} }()
		srv.ServeHTTP(w, r)
	}))
	go traffic.Serve(ln)
	defer traffic.Shutdown(context.Background())

	proxyURL := &url.URL{Scheme: "http", Host: ln.Addr().String()}
	client := &http.Client{Transport: &http.Transport{
		Proxy:               http.ProxyURL(proxyURL),
		MaxIdleConnsPerHost: 16,
	}}

	for i := range tr.Requests {
		req := &tr.Requests[i]
		simNow = req.Time
		resp, err := client.Get(req.URL)
		if err != nil {
			return 0, 0, 0, nil, fmt.Errorf("request %d (%s): %w", i, req.URL, err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		<-handled
		bytesTotal += n
		if v := resp.Header.Get("X-Cache"); v == "HIT" || v == "REVALIDATED" {
			hits++
			bytesHit += n
		}
	}
	fetches, originBytes := org.Fetches()
	fmt.Fprintf(out, "origin:    %d fetches, %.1f MB sent (of %.1f MB requested)\n",
		fetches, float64(originBytes)/1e6, float64(bytesTotal)/1e6)
	if fleet != nil {
		fleet.Close() // stop the worker and drain every queued event
	}
	return hits, bytesHit, bytesTotal, fleet, nil
}

// crossCheckShadows replays the trace through a fresh simulator for
// each shadow policy and demands exact agreement with the ghost
// cache's end-of-run numbers — the invariant tying live observability
// back to the paper's simulator. Any mismatch (or a dropped event,
// which would invalidate the comparison) is an error.
func crossCheckShadows(tr *trace.Trace, capacity int64, cacheSeed uint64, fleet *proxy.ShadowFleet, out io.Writer) error {
	rep := fleet.Report()
	fmt.Fprintf(out, "--- shadow fleet cross-check (%d policies, %d events, %d dropped) ---\n",
		len(rep.Shadows), rep.Processed, rep.Dropped)
	if rep.Dropped != 0 {
		return fmt.Errorf("shadow queue dropped %d events; cross-check needs a drop-free run", rep.Dropped)
	}
	var mismatches int
	for i, spec := range fleet.Policies() {
		pol, err := policy.Parse(spec, tr.Start)
		if err != nil {
			return err
		}
		sim := core.New(core.Config{
			Capacity:       capacity,
			Policy:         pol,
			Seed:           cacheSeed,
			ExcludeDynamic: true,
		})
		for j := range tr.Requests {
			sim.Access(&tr.Requests[j])
		}
		st := sim.Stats()
		sh := rep.Shadows[i]
		verdict := "exact match"
		if sh.Requests != st.Requests || sh.Hits != st.Hits {
			verdict = fmt.Sprintf("MISMATCH (sim %d/%d)", st.Hits, st.Requests)
			mismatches++
		}
		fmt.Fprintf(out, "shadow %-12s HR %6.2f%%  WHR %6.2f%%  (%d hits / %d requests)  %s\n",
			sh.Policy, 100*sh.HR, 100*sh.WHR, sh.Hits, sh.Requests, verdict)
	}
	if mismatches > 0 {
		return fmt.Errorf("%d shadow(s) disagree with the simulator", mismatches)
	}
	return nil
}
