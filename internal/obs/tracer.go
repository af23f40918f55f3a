package obs

// Request-lifecycle tracing. The proxy's histograms (metrics.go) can
// say that p99 is high; this file is the artifact that says why: each
// sampled request is recorded as a timeline of phases — parse, store
// get (policy touch included), origin dial / TTFB / body streaming,
// admission, the eviction chain a Put triggers — and a tail-based
// reservoir keeps exactly the requests worth looking at: the slowest
// per window plus every one that errored, missed, or evicted
// something. The kept set is an admin endpoint (/requests) and exports
// as Chrome trace-event JSON (/trace), so a slow request renders as a
// span tree in Perfetto.
//
// The cost contract: a nil *Tracer (or an unsampled request's nil
// *ReqTrace) costs one branch per site, and the sampled path allocates
// nothing in steady state — span buffers are fixed-size arrays inside
// pooled ReqTrace objects, recycled when the reservoir discards or
// displaces a trace.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Phase labels one step of a request's lifecycle.
type Phase uint8

const (
	PhaseParse      Phase = iota // request line/URL normalization
	PhaseStoreGet                // store lookup incl. policy touch
	PhaseDial                    // origin TCP connect
	PhaseTTFB                    // origin request written → first response byte
	PhaseBody                    // origin body streaming into the object buffer
	PhaseAdmit                   // store admission (Put) incl. eviction chain
	PhaseEvict                   // one victim removal inside the admit span
	PhaseRevalidate              // conditional GET for a stale hit
	PhaseServe                   // writing the response to the client
	numPhases
)

var phaseNames = [numPhases]string{
	"parse", "store.get",
	"origin.dial", "origin.ttfb", "origin.body",
	"admit", "evict", "revalidate", "serve",
}

// String returns the phase's wire name ("parse", "origin.ttfb", ...).
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// SpanID indexes an open span inside a ReqTrace; NoSpan means the span
// was not recorded (nil trace or a full span buffer) and is accepted
// by EndSpan as a no-op.
type SpanID int32

// NoSpan is the SpanID of a span that was never recorded.
const NoSpan SpanID = -1

// maxSpans bounds a trace's span buffer. A request is a handful of
// phases plus an eviction chain; 48 covers a Put that evicts dozens of
// small objects, and overflow is counted (DroppedSpans), never grown.
const maxSpans = 48

// SpanRec is one recorded phase: offsets are nanoseconds from the
// trace's start, so a whole timeline is 3 words per phase.
type SpanRec struct {
	Phase Phase
	Start int64 // ns since request start
	Dur   int64 // ns; 0 while open
	Arg   int64 // phase-specific annotation (victim bytes, admit verdict)
}

// Outcome is how a request ended: its cache key, verdict, response
// status, the body bytes the client was sent, and whether it failed.
// The proxy records it as it serves and hands it to Tracer.End.
type Outcome struct {
	URL     string
	Verdict string // HIT, REVALIDATED, MISS, UNCACHEABLE, ERROR
	Status  int
	Bytes   int64
	Err     bool
}

// ReqTrace is one sampled request's timeline. It is pooled: obtain one
// from Tracer.Begin, record spans, and hand it back with its Outcome
// to Tracer.End — after End the caller must not touch it (the
// reservoir owns it, and may recycle it into another request). The span
// methods are nil-receiver-safe so instrumentation sites need no
// sampling checks of their own.
type ReqTrace struct {
	ID uint64
	Outcome
	Evictions int32
	Wall      time.Time // wall-clock start; also the monotonic base
	Total     int64     // ns, set by Tracer.End

	tracer *Tracer

	// mu guards the span buffer: httptrace fires dial callbacks from
	// the transport's dialing goroutine while the request goroutine
	// owns the trace, so span recording must tolerate that overlap.
	mu      sync.Mutex
	nspans  int32
	dropped int32
	spans   [maxSpans]SpanRec
}

// BeginSpan opens a phase span at the current offset. Safe on a nil
// trace (returns NoSpan); when the span buffer is full the drop is
// counted and NoSpan returned.
func (rt *ReqTrace) BeginSpan(p Phase) SpanID {
	if rt == nil {
		return NoSpan
	}
	now := rt.tracer.since(rt.Wall)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if int(rt.nspans) >= maxSpans {
		rt.dropped++
		return NoSpan
	}
	id := SpanID(rt.nspans)
	rt.spans[id] = SpanRec{Phase: p, Start: int64(now)}
	rt.nspans++
	return id
}

// EndSpan closes a span opened by BeginSpan. No-op on a nil trace or
// NoSpan.
func (rt *ReqTrace) EndSpan(id SpanID) { rt.EndSpanArg(id, 0) }

// EndSpanArg closes a span and attaches a phase-specific annotation
// (victim bytes for evict, 1/0 for admit).
func (rt *ReqTrace) EndSpanArg(id SpanID, arg int64) {
	if rt == nil || id == NoSpan {
		return
	}
	now := rt.tracer.since(rt.Wall)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if id < 0 || id >= SpanID(rt.nspans) {
		return
	}
	rt.spans[id].Dur = int64(now) - rt.spans[id].Start
	rt.spans[id].Arg = arg
}

// CountEviction bumps the eviction counter; any eviction makes the
// trace reservoir-kept. Nil-safe.
func (rt *ReqTrace) CountEviction() {
	if rt != nil {
		rt.Evictions++
	}
}

// Spans copies out the recorded spans (tests and reports).
func (rt *ReqTrace) Spans() []SpanRec {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]SpanRec, rt.nspans)
	copy(out, rt.spans[:rt.nspans])
	return out
}

// DroppedSpans returns how many spans overflowed the buffer.
func (rt *ReqTrace) DroppedSpans() int {
	if rt == nil {
		return 0
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return int(rt.dropped)
}

func (rt *ReqTrace) reset(t *Tracer) {
	rt.ID = 0
	rt.Outcome = Outcome{}
	rt.Evictions = 0
	rt.Total = 0
	rt.tracer = t
	rt.nspans = 0
	rt.dropped = 0
}

// TracerOptions configures a Tracer; the zero value samples every
// request.
type TracerOptions struct {
	// SampleEvery traces every nth request (head sampling); <= 1 means
	// every request. The decision is a function of the arrival number
	// Begin is given, as the access log's sampling is.
	SampleEvery int
}

// slowestK is how many of the slowest requests per DefaultWindow the
// reservoir keeps regardless of outcome. flaggedCap bounds the
// always-keep ring of errored / missed / evicting requests, and
// recentCap the previous windows' slowest traces that stay visible
// after rotation; each ring recycles its oldest trace first.
const (
	slowestK   = 16
	flaggedCap = 64
	recentCap  = 64
)

// Tracer samples requests into pooled ReqTraces and keeps the tail
// worth inspecting. All hot-path state is atomic; the mutex guards
// only the reservoir, which is touched once per *sampled* request at
// completion, never on the serving path of unsampled ones.
type Tracer struct {
	sampleEvery uint64
	slowestK    int
	// clock is nil on real time, whose monotonic reading makes span
	// durations immune to wall-clock steps; tests set a fake one.
	clock func() time.Time

	ids  atomic.Uint64 // trace ID source
	pool sync.Pool

	sampled      atomic.Int64 // traces begun
	kept         atomic.Int64 // traces retained by the reservoir
	flagged      atomic.Int64 // retained because errored/missed/evicting
	discarded    atomic.Int64 // completed but not retained
	droppedSpans atomic.Int64 // span-buffer overflows across all traces

	mu          sync.Mutex
	windowStart time.Time
	slow        []*ReqTrace      // current window's K slowest, min-heap by Total
	flaggedRing *Ring[*ReqTrace] // always-keep ring, oldest overwritten
	recent      *Ring[*ReqTrace] // previous windows' slowest, oldest overwritten
}

// NewTracer returns a tracer with the given options.
func NewTracer(o TracerOptions) *Tracer { return newTracer(o, slowestK, nil) }

// newTracer is NewTracer with the reservoir size and the time source
// (nil = real time) given, so tests can shrink one and fake the other.
func newTracer(o TracerOptions, k int, clock func() time.Time) *Tracer {
	t := &Tracer{
		sampleEvery: uint64(max(o.SampleEvery, 1)),
		slowestK:    k,
		clock:       clock,
		slow:        make([]*ReqTrace, 0, k),
		flaggedRing: NewRing[*ReqTrace](flaggedCap),
		recent:      NewRing[*ReqTrace](recentCap),
	}
	t.pool.New = func() any { return new(ReqTrace) }
	t.windowStart = t.now()
	return t
}

func (t *Tracer) now() time.Time {
	if t == nil || t.clock == nil {
		return time.Now()
	}
	return t.clock()
}

// since returns the elapsed time from t0, using the monotonic clock
// when the tracer runs on real time.
func (t *Tracer) since(t0 time.Time) time.Duration {
	if t == nil || t.clock == nil {
		return time.Since(t0)
	}
	return t.clock().Sub(t0)
}

// Begin starts a trace for the request that arrived seq-th (counting
// from 1), or returns nil when it falls outside the 1-in-N sample —
// requests 1, N+1, 2N+1, … are traced — or the tracer itself is nil
// (the disabled path is one nil check).
func (t *Tracer) Begin(seq uint64) *ReqTrace {
	if t == nil {
		return nil
	}
	if t.sampleEvery > 1 && (seq-1)%t.sampleEvery != 0 {
		return nil
	}
	rt := t.pool.Get().(*ReqTrace)
	rt.reset(t)
	rt.ID = t.ids.Add(1)
	rt.Wall = t.now()
	t.sampled.Add(1)
	return rt
}

// End completes a trace with the request's outcome and runs the
// tail-sampling decision: flagged traces (error, miss, ≥1 eviction)
// always enter the bounded flagged ring; the rest compete for the
// window's K-slowest reservoir. Traces that lose are recycled into the
// pool. Nil-safe on both receivers.
func (t *Tracer) End(rt *ReqTrace, o Outcome) {
	if t == nil || rt == nil {
		return
	}
	rt.Outcome = o
	rt.Total = int64(t.since(rt.Wall))
	if d := rt.DroppedSpans(); d > 0 {
		t.droppedSpans.Add(int64(d))
	}
	isFlagged := rt.Err || rt.Evictions > 0 || rt.Verdict == "MISS"

	t.mu.Lock()
	now := t.now()
	if now.Sub(t.windowStart) >= DefaultWindow {
		t.rotateLocked()
		t.windowStart = now
	}
	switch {
	case isFlagged:
		t.flagged.Add(1)
		t.kept.Add(1)
		t.recycle(t.flaggedRing.Add(rt))
	case len(t.slow) < t.slowestK:
		t.kept.Add(1)
		t.slowPushLocked(rt)
	case rt.Total > t.slow[0].Total:
		t.kept.Add(1)
		t.recycle(t.slowPopLocked())
		t.slowPushLocked(rt)
	default:
		t.discarded.Add(1)
		t.recycle(rt)
	}
	t.mu.Unlock()
}

// recycle returns a displaced trace to the pool; nil (a ring slot
// that held nothing yet) is a no-op.
func (t *Tracer) recycle(rt *ReqTrace) {
	if rt == nil {
		return
	}
	rt.URL = "" // drop the string reference now, not at reuse
	t.pool.Put(rt)
}

// rotateLocked moves the closing window's slowest traces into the
// recent ring. Caller holds t.mu.
func (t *Tracer) rotateLocked() {
	for _, rt := range t.slow {
		t.recycle(t.recent.Add(rt))
	}
	t.slow = t.slow[:0]
}

// slowPushLocked / slowPopLocked maintain t.slow as a min-heap on
// Total, so the cheapest keeper is always at the root for displacement.
func (t *Tracer) slowPushLocked(rt *ReqTrace) {
	t.slow = append(t.slow, rt)
	i := len(t.slow) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if t.slow[parent].Total <= t.slow[i].Total {
			break
		}
		t.slow[parent], t.slow[i] = t.slow[i], t.slow[parent]
		i = parent
	}
}

func (t *Tracer) slowPopLocked() *ReqTrace {
	root := t.slow[0]
	last := len(t.slow) - 1
	t.slow[0] = t.slow[last]
	t.slow = t.slow[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(t.slow) && t.slow[l].Total < t.slow[small].Total {
			small = l
		}
		if r < len(t.slow) && t.slow[r].Total < t.slow[small].Total {
			small = r
		}
		if small == i {
			break
		}
		t.slow[i], t.slow[small] = t.slow[small], t.slow[i]
		i = small
	}
	return root
}

// TracerStats is the tracer's counter snapshot.
type TracerStats struct {
	Sampled      int64 `json:"sampled"`
	Kept         int64 `json:"kept"`
	Flagged      int64 `json:"flagged"`
	Discarded    int64 `json:"discarded"`
	DroppedSpans int64 `json:"dropped_spans"`
}

// Stats returns the tracer's counters.
func (t *Tracer) Stats() TracerStats {
	return TracerStats{
		Sampled:      t.sampled.Load(),
		Kept:         t.kept.Load(),
		Flagged:      t.flagged.Load(),
		Discarded:    t.discarded.Load(),
		DroppedSpans: t.droppedSpans.Load(),
	}
}

// RegisterMetrics exposes the tracer's counters as computed gauges
// under prefix (e.g. "proxy" → proxy.trace_sampled), so /metrics
// carries the sampling health alongside the serving counters.
func (t *Tracer) RegisterMetrics(reg *Registry, prefix string) {
	reg.GaugeFunc(prefix+".trace_sampled", t.sampled.Load)
	reg.GaugeFunc(prefix+".trace_kept", t.kept.Load)
	reg.GaugeFunc(prefix+".trace_flagged", t.flagged.Load)
	reg.GaugeFunc(prefix+".trace_discarded", t.discarded.Load)
	reg.GaugeFunc(prefix+".trace_dropped_spans", t.droppedSpans.Load)
}

// SpanView is one phase of a reported request timeline.
type SpanView struct {
	Phase   string `json:"phase"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Arg     int64  `json:"arg,omitempty"`
}

// RequestRecord is one kept request, copied out of the reservoir — a
// value snapshot, safe to hold after the underlying trace is recycled.
type RequestRecord struct {
	ID           uint64     `json:"id"`
	Time         time.Time  `json:"time"`
	URL          string     `json:"url"`
	Verdict      string     `json:"verdict"`
	Status       int        `json:"status"`
	Bytes        int64      `json:"bytes"`
	Error        bool       `json:"error,omitempty"`
	Evictions    int32      `json:"evictions,omitempty"`
	TotalNs      int64      `json:"total_ns"`
	Flag         string     `json:"flag"` // why it was kept: error|evict|miss|slow
	DroppedSpans int32      `json:"dropped_spans,omitempty"`
	Spans        []SpanView `json:"spans"`
}

func (rt *ReqTrace) record() RequestRecord {
	rec := RequestRecord{
		ID:        rt.ID,
		Time:      rt.Wall,
		URL:       rt.URL,
		Verdict:   rt.Verdict,
		Status:    rt.Status,
		Bytes:     rt.Bytes,
		Error:     rt.Err,
		Evictions: rt.Evictions,
		TotalNs:   rt.Total,
	}
	switch {
	case rt.Err:
		rec.Flag = "error"
	case rt.Evictions > 0:
		rec.Flag = "evict"
	case rt.Verdict == "MISS":
		rec.Flag = "miss"
	default:
		rec.Flag = "slow"
	}
	rt.mu.Lock()
	rec.DroppedSpans = rt.dropped
	rec.Spans = make([]SpanView, rt.nspans)
	for i := int32(0); i < rt.nspans; i++ {
		s := rt.spans[i]
		rec.Spans[i] = SpanView{Phase: s.Phase.String(), StartNs: s.Start, DurNs: s.Dur, Arg: s.Arg}
	}
	rt.mu.Unlock()
	return rec
}

// Snapshot copies the kept requests out of the reservoir, slowest
// first (the /requests ordering).
func (t *Tracer) Snapshot() []RequestRecord {
	t.mu.Lock()
	kept := append(append(t.flaggedRing.Snapshot(), t.recent.Snapshot()...), t.slow...)
	out := make([]RequestRecord, len(kept))
	for i, rt := range kept {
		out[i] = rt.record()
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNs != out[j].TotalNs {
			return out[i].TotalNs > out[j].TotalNs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// FormatTraceID renders a trace ID the way the access log and the
// X-Trace-Id response header carry it.
func FormatTraceID(id uint64) string { return fmt.Sprintf("%08x", id) }

// spanSummary compresses a record's timeline into "phase=dur" pairs of
// the top slowest phases, durations aggregated per phase (an eviction
// chain reads as one evict=... figure).
func spanSummary(rec *RequestRecord, top int) string {
	type agg struct {
		phase string
		dur   int64
	}
	byPhase := map[string]int64{}
	order := make([]agg, 0, len(rec.Spans))
	for _, s := range rec.Spans {
		if _, seen := byPhase[s.Phase]; !seen {
			order = append(order, agg{phase: s.Phase})
		}
		byPhase[s.Phase] += s.DurNs
	}
	for i := range order {
		order[i].dur = byPhase[order[i].phase]
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].dur > order[j].dur })
	if len(order) > top {
		order = order[:top]
	}
	parts := make([]string, len(order))
	for i, a := range order {
		parts[i] = fmt.Sprintf("%s=%s", a.phase, time.Duration(a.dur).Round(time.Microsecond))
	}
	return strings.Join(parts, " ")
}

// Handler serves the reservoir: a text table by default, the full
// structured form (stats + per-request span timelines) with
// ?format=json — the same dual-format convention as /metrics and
// /shadow.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		recs := t.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(map[string]any{
				"stats":    t.Stats(),
				"requests": recs,
			})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st := t.Stats()
		fmt.Fprintf(w, "request traces: %d sampled, %d kept (%d flagged), %d discarded, %d spans dropped\n\n",
			st.Sampled, st.Kept, st.Flagged, st.Discarded, st.DroppedSpans)
		fmt.Fprintf(w, "%-10s %-12s %-11s %6s %10s %6s %-7s %-42s %s\n",
			"TRACE", "VERDICT", "TOTAL", "STATUS", "BYTES", "EVICT", "FLAG", "PHASES", "URL")
		for _, rec := range recs {
			fmt.Fprintf(w, "%-10s %-12s %-11s %6d %10d %6d %-7s %-42s %s\n",
				FormatTraceID(rec.ID), rec.Verdict,
				time.Duration(rec.TotalNs).Round(time.Microsecond),
				rec.Status, rec.Bytes, rec.Evictions, rec.Flag,
				spanSummary(&rec, 3), rec.URL)
		}
	})
}

// traceEvent is one Chrome trace-event record (the "JSON Array Format"
// of the Trace Event specification, loadable in Perfetto and
// chrome://tracing). ph, ts, pid and name are the required keys.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    int64          `json:"ts"` // microseconds
	Dur   int64          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceEvents renders the kept requests as Chrome trace-event records:
// one complete ("X") parent span per request and one nested child span
// per phase, all on the request's own tid under pid 2.
func (t *Tracer) traceEvents() []traceEvent {
	recs := t.Snapshot()
	// Oldest first so tid assignment is stable across exports.
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].Time.Equal(recs[j].Time) {
			return recs[i].Time.Before(recs[j].Time)
		}
		return recs[i].ID < recs[j].ID
	})
	out := make([]traceEvent, 0, len(recs)*4)
	for i, rec := range recs {
		base := rec.Time.UnixMicro()
		tid := 1 + i
		parent := traceEvent{
			Name:  "request",
			Phase: "X",
			Ts:    base,
			Dur:   rec.TotalNs / 1e3,
			Pid:   2,
			Tid:   tid,
			Args: map[string]any{
				"trace":   FormatTraceID(rec.ID),
				"url":     rec.URL,
				"verdict": rec.Verdict,
				"status":  rec.Status,
				"bytes":   rec.Bytes,
				"flag":    rec.Flag,
			},
		}
		if rec.Evictions > 0 {
			parent.Args["evictions"] = rec.Evictions
		}
		out = append(out, parent)
		for _, s := range rec.Spans {
			child := traceEvent{
				Name:  s.Phase,
				Phase: "X",
				Ts:    base + s.StartNs/1e3,
				Dur:   s.DurNs / 1e3,
				Pid:   2,
				Tid:   tid,
			}
			if s.Arg != 0 {
				child.Args = map[string]any{"arg": s.Arg}
			}
			out = append(out, child)
		}
	}
	return out
}

// WriteChromeTrace writes the kept requests' span trees as one Chrome
// trace-event JSON array: the /trace admin endpoint's export and
// livebench's -trace-out file.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return json.NewEncoder(w).Encode(t.traceEvents())
}
