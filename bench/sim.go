package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"webcache"
)

// sweepFractions are the cache sizes of a sweep rep, as shares of
// MaxNeeded: the paper's Experiment 2 setting and a roomy one.
var sweepFractions = []float64{0.10, 0.50}

// cell is one grid cell of a sweep: a policy's replay of a trace at a
// cache size. Replays are deterministic for a seed, so cells are compared
// exactly, across reps and against bench/expected/.
type cell struct {
	Trace     string  `json:"trace"`
	Fraction  float64 `json:"fraction"` // 0 for the infinite cache of Experiment 1
	Policy    string  `json:"policy"`
	Requests  int64   `json:"requests"`
	Hits      int64   `json:"hits"`
	BytesHit  int64   `json:"bytes_hit"`
	Evictions int64   `json:"evictions"`
}

// sweepRep is what one rep of the sweep measured.
type sweepRep struct {
	cells       []cell
	callsMs     []float64 // wall time of each facade call
	exp1, exp2  time.Duration
	accesses    int64
	hr, whr     float64 // mean over the finite-cache cells
	wall, cpu   time.Duration
	mallocs     uint64
	mallocBytes uint64
	finiteCells int
}

// sweepTraces generates the five paper workloads at the given scale.
func sweepTraces(seed uint64, scale float64) ([]*webcache.Trace, error) {
	var traces []*webcache.Trace
	for _, name := range webcache.WorkloadNames() {
		tr, err := seededTrace(name, seed, scale)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
	}
	return traces, nil
}

// sweep runs one rep: on every trace, Experiment 1, then all 36 key
// combinations at each fraction — the paper's own use of the simulator,
// through the facade only.
func sweep(traces []*webcache.Trace, seed uint64) *sweepRep {
	rep := &sweepRep{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, start := selfCPU(), time.Now()
	combos := webcache.AllCombos()
	for _, tr := range traces {
		t0 := time.Now()
		base := webcache.MaxHitRates(tr, seed+1)
		d := time.Since(t0)
		rep.exp1 += d
		rep.callsMs = append(rep.callsMs, d.Seconds()*1e3)
		rep.accesses += base.Final.Requests
		rep.cells = append(rep.cells, cell{tr.Name, 0, "infinite", base.Final.Requests, base.Final.Hits, base.Final.BytesHit, base.Final.Evictions})
		for _, f := range sweepFractions {
			t0 = time.Now()
			res := webcache.ComparePolicies(tr, base, combos, f, seed+2)
			d = time.Since(t0)
			rep.exp2 += d
			rep.callsMs = append(rep.callsMs, d.Seconds()*1e3)
			for _, run := range res.Runs {
				st := &run.Final
				rep.accesses += st.Requests
				rep.cells = append(rep.cells, cell{tr.Name, f, run.Policy, st.Requests, st.Hits, st.BytesHit, st.Evictions})
				rep.hr += st.HitRate()
				rep.whr += st.WeightedHitRate()
				rep.finiteCells++
			}
		}
	}
	rep.wall, rep.cpu = time.Since(start), selfCPU()-cpu0
	runtime.ReadMemStats(&m1)
	rep.mallocs, rep.mallocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	rep.hr /= float64(rep.finiteCells)
	rep.whr /= float64(rep.finiteCells)
	return rep
}

// diffCells counts the cells of got that differ from want.
func diffCells(got, want []cell) (n int, first string) {
	if len(got) != len(want) {
		return max(len(got), len(want)), fmt.Sprintf("%d cells, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			if n++; first == "" {
				first = fmt.Sprintf("got %+v, want %+v", got[i], want[i])
			}
		}
	}
	return n, first
}

// expectedFile is where the committed sweep results for a seed live; only
// full-scale runs are compared with it.
func expectedFile(root string, seed uint64) string {
	return filepath.Join(root, "bench", "expected", fmt.Sprintf("sim-sweep.seed%d.json", seed))
}

func readCells(path string) ([]cell, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cells []cell
	if err := json.Unmarshal(b, &cells); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cells, nil
}

func writeCells(path string, cells []cell) error {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, c := range cells {
		b, err := json.Marshal(c)
		if err != nil {
			return err
		}
		buf.Write(b)
		if i < len(cells)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// runSim measures the sim-sweep workload end to end.
func runSim(ctx context.Context, w workload, o options) (*result, error) {
	res := newResult()
	var traces []*webcache.Trace
	for i := 0; i < o.setups; i++ {
		start := time.Now()
		var err error
		if traces, err = sweepTraces(o.seed, w.scale); err != nil {
			return nil, err
		}
		res.reps.add("setup_s", time.Since(start).Seconds())
	}

	var want []cell
	wantFrom := "the first rep"
	if !o.quick {
		if cells, err := readCells(expectedFile(o.root, o.seed)); err == nil {
			want, wantFrom = cells, "bench/expected/"
		} else if !os.IsNotExist(err) {
			return nil, err
		}
	}
	deadline := time.Now().Add(o.seconds)
	for n := 0; n < o.minReps || time.Now().Before(deadline); n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep := sweep(traces, o.seed)
		if o.writeExpected && n == 0 {
			if err := writeCells(expectedFile(o.root, o.seed), rep.cells); err != nil {
				return nil, err
			}
			want, wantFrom = rep.cells, "bench/expected/"
		}
		if want == nil {
			want = rep.cells
		}
		bad, first := diffCells(rep.cells, want)
		res.attempted += len(rep.cells)
		res.failed += bad
		if bad > 0 && res.firstFailure == "" {
			res.firstFailure = fmt.Sprintf("rep %d differs from %s: %s", n, wantFrom, first)
		}
		acc := float64(rep.accesses)
		res.reps.add("throughput_rps", acc/rep.wall.Seconds())
		res.reps.add("cpu_us_per_req", float64(rep.cpu.Nanoseconds())/1e3/acc)
		res.reps.add("latency_p50_ms", percentile(rep.callsMs, 50))
		res.reps.add("latency_p99_ms", percentile(rep.callsMs, 99))
		res.reps.add("hit_rate", rep.hr)
		res.reps.add("byte_hit_rate", rep.whr)
		res.samples["latency_p50_ms"] = len(rep.callsMs)
		res.samples["latency_p99_ms"] = len(rep.callsMs)
		res.samples["throughput_rps"] = int(rep.accesses)
	}
	self, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.reps.add("peak_rss_MB", self.hwmMB)
	return res, nil
}

// primaryMetric names the per-primary-key replay metrics.
var primaryMetric = map[webcache.Key]string{
	webcache.KeySize:     "policy.size_ns_per_req",
	webcache.KeyLog2Size: "policy.log2size_ns_per_req",
	webcache.KeyETime:    "policy.etime_ns_per_req",
	webcache.KeyATime:    "policy.atime_ns_per_req",
	webcache.KeyDayATime: "policy.dayatime_ns_per_req",
	webcache.KeyNRef:     "policy.nref_ns_per_req",
}

// replayOnce runs tr through a fresh single-threaded cache and returns
// the time per request and the evictions.
func replayOnce(tr *webcache.Trace, capacity int64, pol webcache.Policy, seed uint64) (nsPerReq float64, evictions int64) {
	cache := webcache.NewCache(webcache.CacheConfig{Capacity: capacity, Policy: pol, Seed: seed})
	start := time.Now()
	for i := range tr.Requests {
		cache.Access(&tr.Requests[i])
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(tr.Requests)), cache.Stats().Evictions
}

// timedPolicy times one policy operation in 64 and counts them all. E is
// the policy's entry type, which the facade does not name; newTimedPolicy
// infers it from the method values.
type timedPolicy[E any] struct {
	webcache.Policy
	add, touch, remove func(E)
	victim             func(int64) E

	ops, timed int64
	spent      time.Duration
}

func newTimedPolicy[E any](p webcache.Policy, add, touch, remove func(E), victim func(int64) E) *timedPolicy[E] {
	return &timedPolicy[E]{Policy: p, add: add, touch: touch, remove: remove, victim: victim}
}

// begin reports whether this operation is a timed one.
func (t *timedPolicy[E]) begin() (time.Time, bool) {
	t.ops++
	if t.ops&63 != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (t *timedPolicy[E]) end(start time.Time) {
	t.spent += time.Since(start)
	t.timed++
}

func (t *timedPolicy[E]) Add(e E) {
	start, timed := t.begin()
	t.add(e)
	if timed {
		t.end(start)
	}
}

func (t *timedPolicy[E]) Touch(e E) {
	start, timed := t.begin()
	t.touch(e)
	if timed {
		t.end(start)
	}
}

func (t *timedPolicy[E]) Remove(e E) {
	start, timed := t.begin()
	t.remove(e)
	if timed {
		t.end(start)
	}
}

func (t *timedPolicy[E]) Victim(incoming int64) E {
	start, timed := t.begin()
	e := t.victim(incoming)
	if timed {
		t.end(start)
	}
	return e
}

// Reserve forwards the cache's pre-sizing hint, which the embedded
// interface would hide.
func (t *timedPolicy[E]) Reserve(n int) {
	if r, ok := t.Policy.(interface{ Reserve(int) }); ok {
		r.Reserve(n)
	}
}

// clockCost is what a timed section costs when it times nothing: the
// two clock reads around it.
func clockCost() time.Duration {
	const n = 4096
	var spent time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		spent += time.Since(start)
	}
	return spent / n
}

// simLayers measures the simulator-side layers (the --trace 1 run of
// sim-sweep): each figure is timed from outside, around calls into the
// facade, and is the median over reps of a per-rep value.
func simLayers(ctx context.Context, w workload, o options) (*result, error) {
	res := newResult()
	start := time.Now()
	traces, err := sweepTraces(o.seed, w.scale)
	if err != nil {
		return nil, err
	}
	res.reps.add("workload.generate_s", time.Since(start).Seconds())
	var bl *webcache.Trace
	for _, tr := range traces {
		if tr.Name == "BL" {
			bl = tr
		}
	}
	if bl == nil {
		return nil, fmt.Errorf("no BL trace among %v", webcache.WorkloadNames())
	}

	// trace: a common-log-format round trip of BL.
	var clf bytes.Buffer
	if err := webcache.WriteTraceCLF(&clf, bl, true); err != nil {
		return nil, err
	}
	for i := 0; i < o.minReps; i++ {
		start = time.Now()
		raw, err := webcache.ReadTraceCLF(bytes.NewReader(clf.Bytes()), "BL")
		if err != nil {
			return nil, err
		}
		valid, _ := webcache.ValidateTrace(raw)
		d := time.Since(start)
		if len(valid.Requests) != len(bl.Requests) {
			res.failed++
			res.firstFailure = fmt.Sprintf("CLF round trip kept %d of %d requests", len(valid.Requests), len(bl.Requests))
		}
		res.attempted++
		res.reps.add("trace.clf_read_ns_per_line", float64(d.Nanoseconds())/float64(len(raw.Requests)))
	}

	// sim: the sweep, split by experiment, for a third of the run.
	deadline := time.Now().Add(o.seconds / 3)
	var first []cell
	for n := 0; n < o.minReps || time.Now().Before(deadline); n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep := sweep(traces, o.seed)
		if first == nil {
			first = rep.cells
		}
		bad, why := diffCells(rep.cells, first)
		res.attempted += len(rep.cells)
		res.failed += bad
		if bad > 0 && res.firstFailure == "" {
			res.firstFailure = why
		}
		acc := float64(rep.accesses)
		res.reps.add("sim.exp1_s", rep.exp1.Seconds())
		res.reps.add("sim.exp2_s", rep.exp2.Seconds())
		res.reps.add("sim.cpu_per_wall", rep.cpu.Seconds()/rep.wall.Seconds())
		res.reps.add("sim.allocs_per_req", float64(rep.mallocs)/acc)
		res.reps.add("sim.alloc_bytes_per_req", float64(rep.mallocBytes)/acc)
	}

	// core and policy: single-threaded replays of BL at 10 % of MaxNeeded.
	base := webcache.MaxHitRates(bl, o.seed+1)
	capacity := int64(0.10 * float64(base.MaxNeeded))
	sizePolicy := func() (webcache.Policy, error) { return webcache.NewPolicy("SIZE", bl.Start) }
	for i := 0; i < o.minReps; i++ {
		pol, err := sizePolicy()
		if err != nil {
			return nil, err
		}
		ns, ev := replayOnce(bl, capacity, pol, o.seed+2)
		res.reps.add("core.access_ns_per_req", ns)
		res.reps.add("core.evictions_per_req", float64(ev)/float64(len(bl.Requests)))
	}
	accessNs := res.reps.value("core.access_ns_per_req")
	for i := 0; i < o.minReps; i++ {
		sum := map[webcache.Key]float64{}
		for _, c := range webcache.AllCombos() {
			ns, _ := replayOnce(bl, capacity, c.New(bl.Start), o.seed+2)
			sum[c.Primary] += ns
		}
		for key, name := range primaryMetric {
			res.reps.add(name, sum[key]/6) // six secondaries per primary
		}
	}
	overhead := clockCost()
	for i := 0; i < o.minReps; i++ {
		pol, err := sizePolicy()
		if err != nil {
			return nil, err
		}
		tp := newTimedPolicy(pol, pol.Add, pol.Touch, pol.Remove, pol.Victim)
		replayOnce(bl, capacity, tp, o.seed+2)
		if tp.timed == 0 {
			continue
		}
		opNs := max(0, float64((tp.spent/time.Duration(tp.timed) - overhead).Nanoseconds()))
		opsPerReq := float64(tp.ops) / float64(len(bl.Requests))
		res.reps.add("policy.op_ns", opNs)
		res.reps.add("policy.ops_per_req", opsPerReq)
		res.reps.add("policy.share_of_access", opNs*opsPerReq/accessNs)
	}
	return res, nil
}
