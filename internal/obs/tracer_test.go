package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// tracerClock is a settable fake time source; driving the tracer off it
// makes span offsets, durations and window rotation deterministic.
type tracerClock struct{ t time.Time }

func newTracerClock() *tracerClock {
	return &tracerClock{t: time.Unix(1700000000, 0).UTC()}
}
func (c *tracerClock) now() time.Time          { return c.t }
func (c *tracerClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	if rt := tr.Begin(); rt != nil {
		t.Fatalf("nil tracer sampled a request: %+v", rt)
	}
	tr.End(nil)

	// A nil ReqTrace (the unsampled request) must accept every
	// instrumentation call as a no-op — sites carry no sampling branches.
	var rt *ReqTrace
	sp := rt.BeginSpan(PhaseParse)
	if sp != NoSpan {
		t.Fatalf("nil trace returned span %d", sp)
	}
	rt.EndSpan(sp)
	rt.EndSpanArg(sp, 7)
	rt.SetURL("http://e.com/")
	rt.SetOutcome("HIT", 200, 1)
	rt.MarkError()
	rt.CountEviction()
	if rt.Spans() != nil || rt.DroppedSpans() != 0 {
		t.Fatal("nil trace reported spans")
	}

	// End(nil) on a live tracer: the unsampled request's completion.
	live := NewTracer(TracerOptions{SampleEvery: 2})
	live.Begin()
	live.End(nil)
}

// TestTracerSamplingDeterministic pins the head-sampling rule: with
// SampleEvery = n, requests 1, n+1, 2n+1, … are traced — the same
// arrival-order discipline as AccessLogger.SetSample.
func TestTracerSamplingDeterministic(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleEvery: 3})
	var sampled []int
	for i := 1; i <= 10; i++ {
		rt := tr.Begin()
		if rt != nil {
			sampled = append(sampled, i)
			tr.End(rt)
		}
	}
	want := []int{1, 4, 7, 10}
	if fmt.Sprint(sampled) != fmt.Sprint(want) {
		t.Fatalf("sampled requests %v, want %v", sampled, want)
	}
	if st := tr.Stats(); st.Sampled != 4 {
		t.Fatalf("Sampled = %d, want 4", st.Sampled)
	}
}

// finish drives one Begin/End pair with the given duration and verdict.
func finish(tr *Tracer, c *tracerClock, d time.Duration, verdict string) *ReqTrace {
	rt := tr.Begin()
	c.advance(d)
	rt.SetOutcome(verdict, 200, 1)
	tr.End(rt)
	return rt
}

// TestReservoirKeepsSlowest pins the tail-sampling core: with the
// K-slowest heap full, a faster request is discarded and a slower one
// displaces the current minimum.
func TestReservoirKeepsSlowest(t *testing.T) {
	c := newTracerClock()
	tr := NewTracer(TracerOptions{SlowestK: 2, Clock: c.now})

	finish(tr, c, 10*time.Millisecond, "HIT") // ID 1
	finish(tr, c, 30*time.Millisecond, "HIT") // ID 2
	finish(tr, c, 5*time.Millisecond, "HIT")  // ID 3: faster than both — discarded
	finish(tr, c, 20*time.Millisecond, "HIT") // ID 4: displaces ID 1

	recs := Snapshot2IDs(tr)
	if fmt.Sprint(recs) != "[2 4]" {
		t.Fatalf("kept %v, want [2 4] (the two slowest)", recs)
	}
	// ID 3 never entered the reservoir (discarded); ID 1 was kept and
	// later displaced, which is not a discard.
	st := tr.Stats()
	if st.Sampled != 4 || st.Kept != 3 || st.Discarded != 1 || st.Flagged != 0 {
		t.Fatalf("stats %+v, want sampled 4 kept 3 discarded 1", st)
	}
	for _, rec := range tr.Snapshot() {
		if rec.Flag != "slow" {
			t.Fatalf("unflagged keeper has flag %q", rec.Flag)
		}
	}
}

// Snapshot2IDs returns the kept trace IDs in ascending order.
func Snapshot2IDs(tr *Tracer) []uint64 {
	recs := tr.Snapshot()
	ids := make([]uint64, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	return ids
}

// TestReservoirFlaggedAlwaysKept pins that errored, missed, and
// evicting requests bypass the slowness competition entirely, and that
// the flagged ring recycles oldest-first at its cap.
func TestReservoirFlaggedAlwaysKept(t *testing.T) {
	c := newTracerClock()
	tr := NewTracer(TracerOptions{SlowestK: 1, Clock: c.now})

	// Fill the slow heap with one genuinely slow request.
	finish(tr, c, time.Second, "HIT") // ID 1

	// Zero-duration flagged requests: each would lose the slowness race.
	finish(tr, c, 0, "MISS") // ID 2
	rt := tr.Begin()         // ID 3: errored
	rt.MarkError()
	rt.SetOutcome("ERROR", 502, 0)
	tr.End(rt)
	rt = tr.Begin() // ID 4: evicting
	rt.CountEviction()
	rt.SetOutcome("HIT", 200, 1)
	tr.End(rt)
	// Fill the ring one past its cap: IDs 5 .. flaggedCap+2.
	for i := 3; i <= flaggedCap; i++ {
		finish(tr, c, 0, "MISS")
	}

	// ID 2 (oldest flagged) was recycled to admit the last one.
	want := []uint64{1}
	for id := uint64(3); id <= flaggedCap+2; id++ {
		want = append(want, id)
	}
	if got := fmt.Sprint(Snapshot2IDs(tr)); got != fmt.Sprint(want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	flags := map[uint64]string{}
	for _, rec := range tr.Snapshot() {
		flags[rec.ID] = rec.Flag
	}
	if flags[3] != "error" || flags[4] != "evict" {
		t.Fatalf("flags = %v, want 3:error 4:evict", flags)
	}
	if st := tr.Stats(); st.Flagged != flaggedCap+1 {
		t.Fatalf("Flagged = %d, want %d", st.Flagged, flaggedCap+1)
	}
}

// TestReservoirWindowRotation pins that a window boundary moves the
// closing window's slowest traces into the recent ring — still visible
// in the snapshot — and starts a fresh slowness competition.
func TestReservoirWindowRotation(t *testing.T) {
	c := newTracerClock()
	tr := NewTracer(TracerOptions{SlowestK: 1, Clock: c.now})

	finish(tr, c, 50*time.Millisecond, "HIT") // ID 1: window 1's slowest
	c.advance(2 * DefaultWindow)
	// ID 2 is much faster, but lands in a fresh window: it must be kept
	// rather than compared against ID 1.
	finish(tr, c, time.Millisecond, "HIT")

	if got := fmt.Sprint(Snapshot2IDs(tr)); got != "[1 2]" {
		t.Fatalf("kept %v, want [1 2] (rotation preserved window 1's keeper)", got)
	}
}

// TestSpanBufferOverflow pins the fixed-size span discipline: spans past
// maxSpans are counted, never grown into.
func TestSpanBufferOverflow(t *testing.T) {
	c := newTracerClock()
	tr := NewTracer(TracerOptions{Clock: c.now})
	rt := tr.Begin()
	for i := 0; i < maxSpans+3; i++ {
		sp := rt.BeginSpan(PhaseEvict)
		if i < maxSpans && sp == NoSpan {
			t.Fatalf("span %d rejected below the cap", i)
		}
		if i >= maxSpans && sp != NoSpan {
			t.Fatalf("span %d accepted past the cap", i)
		}
		rt.EndSpan(sp)
	}
	if got := rt.DroppedSpans(); got != 3 {
		t.Fatalf("DroppedSpans = %d, want 3", got)
	}
	rt.SetOutcome("HIT", 200, 1)
	tr.End(rt)
	if st := tr.Stats(); st.DroppedSpans != 3 {
		t.Fatalf("stats DroppedSpans = %d, want 3", st.DroppedSpans)
	}
	rec := tr.Snapshot()[0]
	if rec.DroppedSpans != 3 || len(rec.Spans) != maxSpans {
		t.Fatalf("record has %d spans, %d dropped; want %d/3", len(rec.Spans), rec.DroppedSpans, maxSpans)
	}
}

// TestTracerChromeTraceGolden pins the request-tree export format
// byte-for-byte, the same discipline as the event ring's golden test:
// Perfetto compatibility must not drift silently. One sampled miss that
// evicted renders as a parent "request" span with nested phase spans.
func TestTracerChromeTraceGolden(t *testing.T) {
	c := newTracerClock()
	tr := NewTracer(TracerOptions{Clock: c.now})

	rt := tr.Begin()
	rt.SetURL("http://e.com/a")
	parse := rt.BeginSpan(PhaseParse)
	c.advance(time.Millisecond)
	rt.EndSpan(parse)
	get := rt.BeginSpan(PhaseStoreGet)
	c.advance(2 * time.Millisecond)
	rt.EndSpan(get)
	admit := rt.BeginSpan(PhaseAdmit)
	ev := rt.BeginSpan(PhaseEvict)
	c.advance(time.Millisecond)
	rt.EndSpanArg(ev, 512)
	rt.CountEviction()
	c.advance(time.Millisecond)
	rt.EndSpanArg(admit, 1)
	rt.SetOutcome("MISS", 200, 2048)
	c.advance(time.Millisecond)
	tr.End(rt)

	var buf bytes.Buffer
	if err := WriteCombinedChromeTrace(&buf, nil, tr); err != nil {
		t.Fatal(err)
	}
	want := `[{"name":"request","ph":"X","ts":1700000000000000,"dur":6000,"pid":2,"tid":1,"args":{"bytes":2048,"evictions":1,"flag":"evict","status":200,"trace":"00000001","url":"http://e.com/a","verdict":"MISS"}},{"name":"parse","ph":"X","ts":1700000000000000,"dur":1000,"pid":2,"tid":1},{"name":"store.get","ph":"X","ts":1700000000001000,"dur":2000,"pid":2,"tid":1},{"name":"admit","ph":"X","ts":1700000000003000,"dur":2000,"pid":2,"tid":1,"args":{"arg":1}},{"name":"evict","ph":"X","ts":1700000000003000,"dur":1000,"pid":2,"tid":1,"args":{"arg":512}}]` + "\n"
	if buf.String() != want {
		t.Fatalf("Chrome trace drifted.\ngot:  %s\nwant: %s", buf.String(), want)
	}
}

// TestWriteCombinedChromeTrace pins the merged export: ring residency
// spans on pid 1 and request trees on pid 2 in one array, and an empty
// valid array when both sources are absent.
func TestWriteCombinedChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCombinedChromeTrace(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Fatalf("empty combined trace = %q, want []", got)
	}

	c := newTracerClock()
	ring := NewEventRing(16)
	ring.Add(Event{Kind: EventAdd, Time: c.t.Unix(), ID: -1, Size: 100})
	ring.Add(Event{Kind: EventHit, Time: c.t.Unix() + 1, ID: -1, Size: 100})

	tr := NewTracer(TracerOptions{Clock: c.now})
	rt := tr.Begin()
	rt.SetURL("http://e.com/a")
	rt.SetOutcome("HIT", 200, 100)
	c.advance(time.Millisecond)
	tr.End(rt)

	buf.Reset()
	if err := WriteCombinedChromeTrace(&buf, ring, tr); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
		Pid  int    `json:"pid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("combined trace is not valid JSON: %v", err)
	}
	pids := map[int]int{}
	for _, e := range events {
		pids[e.Pid]++
	}
	if pids[1] == 0 || pids[2] == 0 {
		t.Fatalf("combined trace missing a source: pid counts %v", pids)
	}
}

// TestTracerHandler covers the /requests admin endpoint in both
// formats.
func TestTracerHandler(t *testing.T) {
	c := newTracerClock()
	tr := NewTracer(TracerOptions{Clock: c.now})
	rt := tr.Begin()
	rt.SetURL("http://e.com/slow")
	sp := rt.BeginSpan(PhaseStoreGet)
	c.advance(4 * time.Millisecond)
	rt.EndSpan(sp)
	rt.SetOutcome("MISS", 200, 321)
	tr.End(rt)

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/requests", nil))
	text := rec.Body.String()
	for _, want := range []string{
		"request traces: 1 sampled, 1 kept (1 flagged)",
		"00000001", "MISS", "store.get=4ms", "http://e.com/slow",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text view missing %q:\n%s", want, text)
		}
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/requests?format=json", nil))
	var doc struct {
		Stats    TracerStats     `json:"stats"`
		Requests []RequestRecord `json:"requests"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("JSON view: %v", err)
	}
	if doc.Stats.Sampled != 1 || len(doc.Requests) != 1 {
		t.Fatalf("JSON view = %+v", doc)
	}
	r := doc.Requests[0]
	if r.URL != "http://e.com/slow" || r.Flag != "miss" || len(r.Spans) != 1 || r.Spans[0].Phase != "store.get" {
		t.Fatalf("record = %+v", r)
	}
}

// TestTracerRegisterMetrics pins the proxy.trace_* exposition names CI
// greps for.
func TestTracerRegisterMetrics(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	reg := NewRegistry()
	tr.RegisterMetrics(reg, "proxy")
	tr.End(tr.Begin())

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"proxy.trace_sampled 1", "proxy.trace_kept 1",
		"proxy.trace_flagged", "proxy.trace_discarded", "proxy.trace_dropped_spans",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestPhaseString pins the wire names the exports and summaries use.
func TestPhaseString(t *testing.T) {
	for p := Phase(0); p < numPhases; p++ {
		if s := p.String(); s == "" || strings.HasPrefix(s, "phase(") {
			t.Errorf("phase %d has no name", p)
		}
	}
	if got := Phase(250).String(); got != "phase(250)" {
		t.Errorf("out-of-range phase = %q", got)
	}
}

// TestTracerSteadyStateAllocs pins the pooling contract: once the
// reservoir is warm, a sampled request that loses the slowness race
// (the common case) allocates nothing — Begin reuses a recycled trace
// and End recycles it back.
func TestTracerSteadyStateAllocs(t *testing.T) {
	c := newTracerClock()
	tr := NewTracer(TracerOptions{SlowestK: 1, Clock: c.now})
	finish(tr, c, time.Hour, "HIT") // fill the heap with an unbeatable keeper

	allocs := testing.AllocsPerRun(200, func() {
		rt := tr.Begin()
		sp := rt.BeginSpan(PhaseStoreGet)
		rt.EndSpan(sp)
		rt.SetOutcome("HIT", 200, 1)
		tr.End(rt) // zero-duration: discarded and recycled
	})
	if allocs > 0 {
		t.Fatalf("steady-state sampled request allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkTracerDisabled prices the nil check the entire feature costs
// when off.
func BenchmarkTracerDisabled(b *testing.B) {
	var tr *Tracer
	for i := 0; i < b.N; i++ {
		rt := tr.Begin()
		rt.SetOutcome("HIT", 200, 1)
		tr.End(rt)
	}
}

// BenchmarkTracerSampled prices the full Begin/span/End path for a
// discarded (steady-state) request.
func BenchmarkTracerSampled(b *testing.B) {
	c := newTracerClock()
	tr := NewTracer(TracerOptions{SlowestK: 1, Clock: c.now})
	finish(tr, c, time.Hour, "HIT")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt := tr.Begin()
		sp := rt.BeginSpan(PhaseStoreGet)
		rt.EndSpan(sp)
		rt.SetOutcome("HIT", 200, 1)
		tr.End(rt)
	}
}
