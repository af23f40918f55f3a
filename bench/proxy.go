package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"
)

// live is a stub origin with the real cmd/proxy binary in front of it.
type live struct {
	origin *stubOrigin
	proxy  *child
}

// startLive starts the origin and the proxy child for a schedule: the
// binary's default flags (sharded store, touch buffer, maintainer — what
// operators get) plus the listen address, the capacity, a freshness
// window longer than any run, and the origin as parent.
func startLive(ctx context.Context, bin string, s *schedule, withAdmin bool, extra ...string) (*live, error) {
	origin, err := startOrigin(s.docs, nil)
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-capacity", strconv.FormatInt(s.capacity, 10),
		"-policy", "SIZE",
		"-fresh", "24h",
		"-parent", origin.url(),
	}, extra...)
	proxy, err := startProxy(ctx, bin, withAdmin, args...)
	if err != nil {
		origin.close()
		return nil, err
	}
	return &live{origin: origin, proxy: proxy}, nil
}

func (l *live) close() {
	l.proxy.close()
	l.origin.close()
}

// startWarm starts origin and proxy and runs the warm pass that fills
// the cache: with trace generation, the work setup_s covers.
func startWarm(ctx context.Context, bin string, s *schedule, withAdmin bool, extra ...string) (*live, error) {
	l, err := startLive(ctx, bin, s, withAdmin, extra...)
	if err != nil {
		return nil, err
	}
	warm, _, err := replay(ctx, l.proxy.addr, s, conns(), nil)
	if err == nil && warm.failed > 0 {
		err = fmt.Errorf("warm pass: %d of %d requests failed, first: %s", warm.failed, warm.n, warm.firstFailure)
	}
	if err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// timedPass is one rep against the child: a closed-loop pass on n
// connections, its wall time, and the child's CPU and context switches
// over it.
type timedPass struct {
	tally
	wall            time.Duration
	userSec, sysSec float64
	ctxsw           int64
}

func timePass(ctx context.Context, l *live, s *schedule, n int) (*timedPass, error) {
	pid := l.proxy.pid()
	before, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	t, wall, err := replay(ctx, l.proxy.addr, s, n, nil)
	if err != nil {
		return nil, err
	}
	after, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	return &timedPass{t, wall, after.userSec - before.userSec, after.sysSec - before.sysSec, after.ctxsw - before.ctxsw}, nil
}

// note records the checks of a pass in the result.
func (r *result) note(t tally) {
	r.attempted += t.n
	r.failed += t.failed
	if r.firstFailure == "" {
		r.firstFailure = t.firstFailure
	}
}

// runProxy measures a proxy-* workload end to end against the binary.
func runProxy(ctx context.Context, w workload, o options) (*result, error) {
	res := newResult()
	bin, _, err := buildProxy(ctx, o.root, o.outDir)
	if err != nil {
		return nil, err
	}
	// Every set-up is measured against, for its share of the run: the
	// reported figure is the median over the reps of all of them, so a
	// property of one proxy process (where its threads and heap landed)
	// shifts a third of the reps, not the run.
	var s *schedule
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		if s, err = newSchedule(w.trace, o.seed, w.scale, w.fraction); err != nil {
			return nil, err
		}
		l, err := startWarm(ctx, bin, s, false)
		if err != nil {
			return nil, err
		}
		res.reps.add("setup_s", time.Since(start).Seconds())
		err = measureProxy(ctx, l, s, o.seconds/time.Duration(o.setups), (o.minReps+o.setups-1)/o.setups, res)
		l.close()
		if err != nil {
			return nil, err
		}
	}
	res.info["sim_hit_rate"] = s.simHR
	res.info["sim_byte_hit_rate"] = s.simWHR
	res.info["requests_per_rep"] = float64(len(s.reqs))
	res.info["p99_samples_beyond"] = float64(samplesBeyond(len(s.reqs), 99))
	return res, nil
}

// measureProxy runs reps against one proxy instance for d, at least
// minReps of them, and records the end-to-end figures of each.
func measureProxy(ctx context.Context, l *live, s *schedule, d time.Duration, minReps int, res *result) error {
	deadline := time.Now().Add(d)
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		p, err := timePass(ctx, l, s, conns())
		if err != nil {
			return err
		}
		res.note(p.tally)
		done := p.n - p.failed
		if done == 0 {
			continue // nothing to compute from; the run is already incorrect
		}
		lat := p.latenciesUsec
		res.reps.add("throughput_rps", float64(done)/p.wall.Seconds())
		res.reps.add("latency_p50_ms", percentile(lat, 50)/1e3)
		res.reps.add("latency_p99_ms", percentile(lat, 99)/1e3)
		res.reps.add("cpu_us_per_req", (p.userSec+p.sysSec)*1e6/float64(p.n))
		res.reps.add("hit_rate", float64(p.hits)/float64(p.n))
		res.reps.add("byte_hit_rate", float64(p.hitB)/float64(p.bytes))
		for _, name := range []string{"throughput_rps", "latency_p50_ms", "latency_p99_ms"} {
			res.samples[name] = len(lat)
		}
	}
	end, err := readProc(l.proxy.pid())
	if err != nil {
		return err
	}
	res.reps.add("peak_rss_MB", end.hwmMB)
	return nil
}

// obsFlags turn on every observability surface the binary has.
var obsFlags = []string{"-shadow", "LRU,SIZE,LFU", "-trace-sample", "64"}

// proxyLayers measures the layers under a proxy-* workload (its
// --trace 1 run): a short plain run of the binary for the process- and
// origin-side counts, an open-loop diagnostic, the traced in-process run
// for the budget, and on proxy-hit the binary again with observability on.
func proxyLayers(ctx context.Context, w workload, o options) (*result, error) {
	res := newResult()
	bin, built, err := buildProxy(ctx, o.root, o.outDir)
	if err != nil {
		return nil, err
	}
	res.reps.add("bench.build_s", built.Seconds())

	start := time.Now()
	s, err := newSchedule(w.trace, o.seed, w.scale, w.fraction)
	if err != nil {
		return nil, err
	}
	res.reps.add("workload.generate_s", time.Since(start).Seconds())

	l, err := startWarm(ctx, bin, s, false)
	if err != nil {
		return nil, err
	}
	plain, err := childReps(ctx, l, s, o, o.seconds/4, res)
	if err == nil {
		err = openLoopDiag(ctx, l, s, w.openRate, max(o.seconds/6, 300*time.Millisecond), res)
	}
	l.close()
	if err != nil {
		return nil, err
	}

	spanFile := filepath.Join(o.outDir, "trace-"+w.name+".json")
	lines, traced, err := runTraced(ctx, s, spanFile)
	if err != nil {
		return nil, err
	}
	res.note(traced)
	for name, v := range lines {
		res.reps.add(name, v)
	}
	if plain.p50 > 0 {
		res.reps.add("traced_vs_e2e_p50_ratio", lines["client.total_us_p50"]/plain.p50)
	}

	if w.obs {
		if err := obsRun(ctx, bin, s, o, plain, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// childFigures are the medians of a short run against the binary that
// later steps compare with.
type childFigures struct{ p50, cpu float64 }

// childReps runs reps against the binary for about d and records the
// client-, process- and origin-side per-layer figures.
func childReps(ctx context.Context, l *live, s *schedule, o options, d time.Duration, res *result) (childFigures, error) {
	local := reps{}
	deadline := time.Now().Add(d)
	for n := 0; n < min(o.minReps, 3) || time.Now().Before(deadline); n++ {
		before := l.origin.counts()
		p, err := timePass(ctx, l, s, conns())
		if err != nil {
			return childFigures{}, err
		}
		after := l.origin.counts()
		all := p.tally
		res.note(all)
		reqs := float64(all.n)
		fetches := float64(after.fetches - before.fetches)
		res.reps.add("origin.fetches_per_req", fetches/reqs)
		res.reps.add("origin.bytes_per_req", float64(after.bytes-before.bytes)/reqs)
		if fetches > 0 {
			res.reps.add("origin.duplicate_fetch_ratio", float64(after.duplicate-before.duplicate)/fetches)
		}
		res.reps.add("proxy.cpu_user_us_per_req", p.userSec*1e6/reqs)
		res.reps.add("proxy.cpu_sys_us_per_req", p.sysSec*1e6/reqs)
		res.reps.add("proxy.ctxsw_per_req", float64(p.ctxsw)/reqs)
		res.reps.add("client.p999_ms", percentile(all.latenciesUsec, 99.9)/1e3)
		// The same schedule through the simulator's single SIZE cache of
		// the same capacity: what the store's arrangement costs in hits.
		if s.simHR > 0 && s.simWHR > 0 && all.bytes > 0 {
			res.reps.add("proxy.hit_rate_vs_sim", float64(all.hits)/reqs/s.simHR)
			res.reps.add("proxy.byte_hit_rate_vs_sim", float64(all.hitB)/float64(all.bytes)/s.simWHR)
		}
		// One connection: the unloaded latency, which on this box follows
		// where the scheduler puts client and proxy (README.md) and so is
		// a diagnostic, not a gated figure.
		one, err := timePass(ctx, l, s, 1)
		if err != nil {
			return childFigures{}, err
		}
		res.note(one.tally)
		res.reps.add("client.unloaded_p50_ms", percentile(one.latenciesUsec, 50)/1e3)
		res.reps.add("client.unloaded_p99_ms", percentile(one.latenciesUsec, 99)/1e3)
		local.add("p50", percentile(one.latenciesUsec, 50))
		local.add("cpu", (p.userSec+p.sysSec)*1e6/reqs)
	}
	end, err := readProc(l.proxy.pid())
	if err != nil {
		return childFigures{}, err
	}
	res.reps.add("proxy.rss_end_MB", end.rssMB)
	res.reps.add("proxy.threads", float64(end.threads))
	return childFigures{p50: local.value("p50"), cpu: local.value("cpu")}, nil
}

// openLoopDiag is never gated: on a shared VM its tail follows timer
// wake-ups (see README.md), so it is a per-layer diagnostic only.
func openLoopDiag(ctx context.Context, l *live, s *schedule, rate float64, d time.Duration, res *result) error {
	t, late, err := openLoop(ctx, l.proxy.addr, s, rate, d)
	if err != nil {
		return err
	}
	res.note(t)
	res.reps.add("client.open_p50_ms", percentile(t.latenciesUsec, 50)/1e3)
	res.reps.add("client.open_p99_ms", percentile(t.latenciesUsec, 99)/1e3)
	res.reps.add("client.open_late_p99_ms", percentile(late, 99)/1e3)
	return nil
}

// obsRun prices the observability surfaces: the same workload against
// the binary with the admin listener, three shadow policies and request
// tracing on, as ratios to the plain run of the same invocation.
func obsRun(ctx context.Context, bin string, s *schedule, o options, plain childFigures, res *result) error {
	l, err := startWarm(ctx, bin, s, true, obsFlags...)
	if err != nil {
		return err
	}
	defer l.close()
	scratch := newResult() // its per-layer lines describe the plain run only
	on, err := childReps(ctx, l, s, o, o.seconds/6, scratch)
	if err != nil {
		return err
	}
	res.note(tally{n: scratch.attempted, failed: scratch.failed, firstFailure: scratch.firstFailure})
	if plain.cpu > 0 && plain.p50 > 0 {
		res.reps.add("obs.on_cpu_ratio", on.cpu/plain.cpu)
		res.reps.add("obs.on_p50_ratio", on.p50/plain.p50)
	}
	// Coverage is what the shadow fleet processed of what the client
	// offered it (warm pass included); its queue is lossy by design.
	processed, ok, err := adminMetric(ctx, l.proxy.admin, "store.shadow.processed")
	if err != nil {
		return err
	}
	offered := float64(scratch.attempted - scratch.failed + len(s.reqs))
	if ok && offered > 0 {
		res.reps.add("obs.shadow_coverage", processed/offered)
	} else {
		res.info["obs.shadow_coverage_absent"] = 1
	}
	return nil
}

// adminMetric reads one value from the admin listener's JSON metrics;
// ok is false when the binary does not export the name.
func adminMetric(ctx context.Context, admin, name string) (v float64, ok bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+admin+"/metrics?format=json", nil)
	if err != nil {
		return 0, false, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	var doc struct {
		Metrics map[string]any `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, false, fmt.Errorf("admin /metrics: %w", err)
	}
	v, ok = doc.Metrics[name].(float64)
	return v, ok, nil
}
