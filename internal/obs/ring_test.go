package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"

	"webcache/internal/core"
	"webcache/internal/policy"
	"webcache/internal/trace"
)

func TestRingAddAndSnapshot(t *testing.T) {
	r := NewRing[int](4)
	if got := r.Cap(); got != 4 {
		t.Fatalf("Cap() = %d, want 4", got)
	}
	if got := r.Len(); got != 0 {
		t.Fatalf("Len() on empty ring = %d, want 0", got)
	}
	if snap := r.Snapshot(); snap == nil || len(snap) != 0 {
		t.Fatalf("Snapshot() on empty ring = %#v, want an empty slice", snap)
	}
	for i := 0; i < 3; i++ {
		r.Add(i)
	}
	if got, total := r.Len(), r.Total(); got != 3 || total != 3 {
		t.Fatalf("Len(), Total() = %d, %d, want 3, 3", got, total)
	}
	if snap := r.Snapshot(); !slices.Equal(snap, []int{0, 1, 2}) {
		t.Fatalf("Snapshot() = %v, want [0 1 2] (oldest first)", snap)
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 10; i++ {
		r.Add(i)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len() after wrap = %d, want 4", got)
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total() = %d, want 10", got)
	}
	if snap := r.Snapshot(); !slices.Equal(snap, []int{6, 7, 8, 9}) {
		t.Fatalf("Snapshot() = %v, want [6 7 8 9]", snap)
	}
}

// TestRingAddReturnsDisplaced pins what the tracer's rings rely on to
// recycle traces: Add returns the zero value while the ring fills, and
// from the Cap()+1-th add on exactly the value it overwrote, oldest
// first.
func TestRingAddReturnsDisplaced(t *testing.T) {
	r := NewRing[*int](3)
	vals := make([]int, 8)
	for i := range vals {
		vals[i] = i
		old := r.Add(&vals[i])
		if i < r.Cap() {
			if old != nil {
				t.Fatalf("add %d displaced %d from a ring that was not full", i+1, *old)
			}
			continue
		}
		if want := &vals[i-r.Cap()]; old != want {
			t.Fatalf("add %d displaced %v, want the pointer to %d", i+1, old, *want)
		}
	}
}

func TestRingMinCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5, 1} {
		r := NewRing[string](capacity)
		if r.Cap() != 1 {
			t.Fatalf("NewRing(%d).Cap() = %d, want 1", capacity, r.Cap())
		}
		if old := r.Add("a"); old != "" {
			t.Fatalf("first Add displaced %q", old)
		}
		if old := r.Add("b"); old != "a" {
			t.Fatalf("second Add displaced %q, want \"a\"", old)
		}
		if snap := r.Snapshot(); !slices.Equal(snap, []string{"b"}) || r.Len() != 1 || r.Total() != 2 {
			t.Fatalf("Snapshot() = %q, Len() = %d, Total() = %d; want [b], 1, 2", snap, r.Len(), r.Total())
		}
	}
}

// TestRingConcurrentAdd hammers a ring much smaller than the stream
// (run it under -race): the total must be exact despite every writer
// wrapping the buffer many times over, the retained window must hold
// only intact values (a torn slot would surface as a pair that no
// writer produced), and every value added must come back exactly once,
// either displaced by Add or retained in the final snapshot.
func TestRingConcurrentAdd(t *testing.T) {
	const capacity, writers, per = 32, 8, 2000
	type pair struct{ seq, check int64 }
	r := NewRing[pair](capacity)
	displaced := make([][]pair, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq := int64(w*per + i)
				if old := r.Add(pair{seq, seq * 3}); old != (pair{}) {
					displaced[w] = append(displaced[w], old)
				}
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
	seen := make([]int, writers*per)
	all := r.Snapshot()
	for _, d := range displaced {
		all = append(all, d...)
	}
	for _, p := range all {
		if p.seq < 0 || p.seq >= writers*per || p.check != p.seq*3 {
			t.Fatalf("value %+v: torn or fabricated", p)
		}
		seen[p.seq]++
	}
	for seq, n := range seen {
		// Sequence 0 is the zero pair, which Add's zero displacement
		// hides; every other value comes back exactly once.
		if seq > 0 && n != 1 {
			t.Fatalf("value %d came back %d times, want once", seq, n)
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
}

// TestChromeTraceGolden validates the Chrome trace-event export against
// the trace-event format's schema: a JSON array where every record has
// the required ph/ts/pid/name keys, evictions are complete ("X") events
// spanning the victim's residency window, and the rest are instants.
func TestChromeTraceGolden(t *testing.T) {
	r := NewEventRing(16)
	r.Add(Event{Kind: EventMiss, Time: 100, ID: -1, Size: 2048})
	r.Add(Event{Kind: EventAdd, Time: 100, ID: 7, Size: 2048})
	r.Add(Event{Kind: EventHit, Time: 160, ID: 7, Size: 2048, NRef: 2})
	r.Add(Event{Kind: EventEvict, Time: 400, ID: 7, Size: 2048, Age: 300, NRef: 2})

	var buf bytes.Buffer
	if err := WriteCombinedChromeTrace(&buf, r, nil); err != nil {
		t.Fatalf("WriteCombinedChromeTrace: %v", err)
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
	if err := WriteCombinedChromeTrace(&buf, NewEventRing(4), nil); err != nil {
		t.Fatalf("WriteCombinedChromeTrace on empty ring: %v", err)
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
		r.Add(ev)
	}
}

func ExampleEventRing_Snapshot() {
	r := NewEventRing(8)
	r.Add(Event{Kind: EventMiss, Time: 1, ID: -1, Size: 100})
	r.Add(Event{Kind: EventAdd, Time: 1, ID: 3, Size: 100})
	for _, ev := range r.Snapshot() {
		fmt.Printf("%s t=%d size=%d\n", ev.Kind, ev.Time, ev.Size)
	}
	// Output:
	// miss t=1 size=100
	// add t=1 size=100
}

// TestRingHooks drives a string-indexed LRU cache through one miss and
// add, one hit, and an eviction, and checks each event RingHooks
// records; a nil ring gets no hooks.
func TestRingHooks(t *testing.T) {
	if h := RingHooks(nil); h.OnHit != nil || h.OnMiss != nil || h.OnEvict != nil || h.OnAdd != nil {
		t.Fatal("RingHooks(nil) set a hook")
	}
	ring := NewEventRing(16)
	c := core.New(core.Config{Capacity: 150, Policy: policy.NewLRU(), Hooks: RingHooks(ring)})
	for _, r := range []trace.Request{
		{Time: 10, URL: "http://s/a", Size: 100},
		{Time: 20, URL: "http://s/a", Size: 100},
		{Time: 30, URL: "http://s/b", Size: 100},
	} {
		c.Access(&r)
	}
	want := []Event{
		{Kind: EventMiss, Time: 10, ID: -1, Size: 100},
		{Kind: EventAdd, Time: 10, ID: -1, Size: 100},
		{Kind: EventHit, Time: 20, ID: -1, Size: 100, NRef: 2},
		{Kind: EventMiss, Time: 30, ID: -1, Size: 100},
		{Kind: EventEvict, Time: 30, ID: -1, Size: 100, Age: 20, NRef: 2},
		{Kind: EventAdd, Time: 30, ID: -1, Size: 100},
	}
	if got := ring.Snapshot(); !slices.Equal(got, want) {
		t.Fatalf("events\n%+v\nwant\n%+v", got, want)
	}
}
