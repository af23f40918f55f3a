package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestEventRingRecordAndSnapshot(t *testing.T) {
	r := NewEventRing(4)
	if got := r.Cap(); got != 4 {
		t.Fatalf("Cap() = %d, want 4", got)
	}
	if got := r.Len(); got != 0 {
		t.Fatalf("Len() on empty ring = %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		r.Record(Event{Kind: EventMiss, Time: int64(i), Size: int64(10 * i)})
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len() = %d, want 3", got)
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot() len = %d, want 3", len(snap))
	}
	for i, ev := range snap {
		if ev.Time != int64(i) {
			t.Errorf("snapshot[%d].Time = %d, want %d (oldest first)", i, ev.Time, i)
		}
	}
}

func TestEventRingWrapKeepsNewest(t *testing.T) {
	r := NewEventRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: EventHit, Time: int64(i)})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len() after wrap = %d, want 4", got)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total() = %d, want 10", got)
	}
	snap := r.Snapshot()
	want := []int64{6, 7, 8, 9}
	for i, ev := range snap {
		if ev.Time != want[i] {
			t.Errorf("snapshot[%d].Time = %d, want %d", i, ev.Time, want[i])
		}
	}
}

// kindCounts counts events by kind.
func kindCounts(evs []Event) (n [numEventKinds]int64) {
	for _, ev := range evs {
		n[ev.Kind]++
	}
	return n
}

func TestEventRingCounts(t *testing.T) {
	r := NewEventRing(2) // smaller than the event stream: the total survives wrap
	r.Record(Event{Kind: EventHit})
	r.Record(Event{Kind: EventHit})
	r.Record(Event{Kind: EventMiss})
	r.Record(Event{Kind: EventEvict})
	r.Record(Event{Kind: EventAdd})
	r.Record(Event{Kind: EventAdd})
	r.Record(Event{Kind: EventAdd})
	if got := r.Total(); got != 7 {
		t.Fatalf("Total() = %d, want 7", got)
	}
	if got := kindCounts(r.Snapshot()); got != [numEventKinds]int64{0, 0, 0, 2} {
		t.Fatalf("retained kinds (hit, miss, evict, add) = %v, want the newest two adds", got)
	}
}

func TestEventRingMinCapacity(t *testing.T) {
	r := NewEventRing(0)
	if r.Cap() != 1 {
		t.Fatalf("Cap() = %d, want 1 (clamped)", r.Cap())
	}
	r.Record(Event{Kind: EventMiss, Time: 42})
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Time != 42 {
		t.Fatalf("Snapshot() = %+v, want single event with Time 42", snap)
	}
}

func TestEventRingConcurrentRecord(t *testing.T) {
	r := NewEventRing(64)
	const writers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(Event{Kind: EventKind(i % 4), Time: int64(i)})
			}
		}()
	}
	wg.Wait()
	if got := r.Total(); got != writers*per {
		t.Fatalf("Total() = %d, want %d", got, writers*per)
	}
}

// TestEventRingConcurrentWrap hammers a ring much smaller than the
// event stream: the total must be exact despite every
// writer wrapping the buffer many times over, and the retained window
// must hold only intact events (a torn slot would surface as a payload
// that no writer produced).
func TestEventRingConcurrentWrap(t *testing.T) {
	const capacity, writers, per = 32, 8, 2000
	r := NewEventRing(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq := int64(w*per + i)
				// Size is derived from Time, so a reader can verify a
				// snapshot event was written atomically.
				r.Record(Event{Kind: EventKind(i % 4), Time: seq, Size: seq * 3})
			}
		}(w)
	}
	wg.Wait()
	if got := r.Total(); got != writers*per {
		t.Fatalf("Total() = %d, want %d", got, writers*per)
	}
	if got := r.Len(); got != capacity {
		t.Fatalf("Len() after heavy wrap = %d, want %d", got, capacity)
	}
	snap := r.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("Snapshot() len = %d, want %d", len(snap), capacity)
	}
	for i, ev := range snap {
		if ev.Time < 0 || ev.Time >= writers*per || ev.Size != ev.Time*3 {
			t.Errorf("snapshot[%d] = %+v: torn or fabricated event", i, ev)
		}
	}
}

func TestEventKindString(t *testing.T) {
	cases := map[EventKind]string{
		EventHit:   "hit",
		EventMiss:  "miss",
		EventEvict: "evict",
		EventAdd:   "add",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, got, want)
		}
	}
	b, err := json.Marshal(EventEvict)
	if err != nil || string(b) != `"evict"` {
		t.Errorf("Marshal(EventEvict) = %s, %v; want \"evict\"", b, err)
	}
}

// TestChromeTraceGolden validates the Chrome trace-event export against
// the trace-event format's schema: a JSON array where every record has
// the required ph/ts/pid/name keys, evictions are complete ("X") events
// spanning the victim's residency window, and the rest are instants.
func TestChromeTraceGolden(t *testing.T) {
	r := NewEventRing(16)
	r.Record(Event{Kind: EventMiss, Time: 100, ID: -1, Size: 2048})
	r.Record(Event{Kind: EventAdd, Time: 100, ID: 7, Size: 2048})
	r.Record(Event{Kind: EventHit, Time: 160, ID: 7, Size: 2048, NRef: 2})
	r.Record(Event{Kind: EventEvict, Time: 400, ID: 7, Size: 2048, Age: 300, NRef: 2})

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}

	var records []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("export is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(records) != 4 {
		t.Fatalf("got %d records, want 4", len(records))
	}
	for i, rec := range records {
		for _, key := range []string{"ph", "ts", "pid", "name"} {
			if _, ok := rec[key]; !ok {
				t.Errorf("record %d missing required key %q: %v", i, key, rec)
			}
		}
	}

	// The eviction is a complete event spanning [Time-Age, Time] in µs.
	ev := records[3]
	if ev["ph"] != "X" {
		t.Errorf("evict ph = %v, want X", ev["ph"])
	}
	if got := ev["ts"].(float64); got != float64((400-300)*1e6) {
		t.Errorf("evict ts = %v, want %v", got, (400-300)*1e6)
	}
	if got := ev["dur"].(float64); got != float64(300*1e6) {
		t.Errorf("evict dur = %v, want %v", got, 300*1e6)
	}
	args := ev["args"].(map[string]any)
	if args["age"].(float64) != 300 || args["nref"].(float64) != 2 {
		t.Errorf("evict args = %v, want age=300 nref=2", args)
	}

	// Instants carry the mandatory scope and microsecond timestamps.
	for i, kind := range []string{"miss", "add", "hit"} {
		rec := records[i]
		if rec["name"] != kind {
			t.Errorf("record %d name = %v, want %s", i, rec["name"], kind)
		}
		if rec["ph"] != "i" || rec["s"] != "t" {
			t.Errorf("%s record ph/s = %v/%v, want i/t", kind, rec["ph"], rec["s"])
		}
	}
	// A miss has no known URL ID; the id arg must be omitted, not -1.
	missArgs := records[0]["args"].(map[string]any)
	if _, ok := missArgs["id"]; ok {
		t.Errorf("miss args include id = %v, want omitted for ID -1", missArgs["id"])
	}
	// Per-kind tid tracks keep the classes visually separate.
	seen := map[float64]string{}
	for _, rec := range records {
		tid := rec["tid"].(float64)
		name := rec["name"].(string)
		if prev, ok := seen[tid]; ok && prev != name {
			t.Errorf("tid %v shared by %s and %s", tid, prev, name)
		}
		seen[tid] = name
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewEventRing(4).WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace on empty ring: %v", err)
	}
	var records []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("empty export is not a JSON array: %v", err)
	}
	if len(records) != 0 {
		t.Fatalf("empty ring exported %d records", len(records))
	}
}

func BenchmarkEventRingRecord(b *testing.B) {
	r := NewEventRing(1 << 16)
	ev := Event{Kind: EventHit, Time: 1, ID: 7, Size: 1024, NRef: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(ev)
	}
}

func ExampleEventRing_Snapshot() {
	r := NewEventRing(8)
	r.Record(Event{Kind: EventMiss, Time: 1, ID: -1, Size: 100})
	r.Record(Event{Kind: EventAdd, Time: 1, ID: 3, Size: 100})
	for _, ev := range r.Snapshot() {
		fmt.Printf("%s t=%d size=%d\n", ev.Kind, ev.Time, ev.Size)
	}
	// Output:
	// miss t=1 size=100
	// add t=1 size=100
}
