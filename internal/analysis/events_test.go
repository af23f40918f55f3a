package analysis

import (
	"strings"
	"testing"

	"webcache/internal/obs"
)

func TestProfileEvents(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.EventMiss, Time: 10, ID: -1, Size: 100},
		{Kind: obs.EventAdd, Time: 10, ID: 1, Size: 100},
		{Kind: obs.EventMiss, Time: 20, ID: -1, Size: 300},
		{Kind: obs.EventAdd, Time: 20, ID: 2, Size: 300},
		{Kind: obs.EventHit, Time: 30, ID: 1, Size: 100, NRef: 2},
		{Kind: obs.EventEvict, Time: 50, ID: 2, Size: 300, Age: 30, NRef: 1},
		{Kind: obs.EventAdd, Time: 50, ID: 3, Size: 250},
	}
	p := ProfileEvents(events)

	if p.Events != 7 || p.Hits != 1 || p.Misses != 2 || p.Adds != 3 || p.Evictions != 1 {
		t.Fatalf("counts = %+v, want 7 events / 1 hit / 2 misses / 3 adds / 1 eviction", p)
	}
	if p.EvictionAges.Mean != 30 || p.EvictionAges.Max != 30 {
		t.Errorf("eviction ages = %+v, want mean/max 30", p.EvictionAges)
	}
	if p.EvictedNRefs.Mean != 1 {
		t.Errorf("evicted NREFs mean = %v, want 1", p.EvictedNRefs.Mean)
	}
	// Occupancy trajectory: +100, +300, -300, +250.
	want := []OccupancySample{
		{Time: 10, Bytes: 100},
		{Time: 20, Bytes: 400},
		{Time: 50, Bytes: 100},
		{Time: 50, Bytes: 350},
	}
	if len(p.Occupancy) != len(want) {
		t.Fatalf("occupancy has %d samples, want %d", len(p.Occupancy), len(want))
	}
	for i, s := range want {
		if p.Occupancy[i] != s {
			t.Errorf("occupancy[%d] = %+v, want %+v", i, p.Occupancy[i], s)
		}
	}
	if p.OccupancyMax != 400 {
		t.Errorf("occupancy max = %d, want 400", p.OccupancyMax)
	}
	// Age 30 lands in the 2^4 class.
	if got := p.EvictionAgeHist.Counts[4]; got != 1 {
		t.Errorf("age-class counts = %v, want one in class 4", p.EvictionAgeHist.Counts)
	}
}

func TestAnalyzeEventsFromRing(t *testing.T) {
	ring := obs.NewEventRing(16)
	ring.Add(obs.Event{Kind: obs.EventAdd, Time: 1, ID: 1, Size: 50})
	ring.Add(obs.Event{Kind: obs.EventEvict, Time: 9, ID: 1, Size: 50, Age: 8, NRef: 3})
	p := AnalyzeEvents(ring)
	if p.Adds != 1 || p.Evictions != 1 {
		t.Fatalf("profile = %+v, want 1 add / 1 eviction", p)
	}
	if p.EvictionAges.Median != 8 {
		t.Errorf("median age = %v, want 8", p.EvictionAges.Median)
	}
}

func TestAnalyzeEventsNilRing(t *testing.T) {
	p := AnalyzeEvents(nil)
	if p.Events != 0 {
		t.Fatalf("nil ring profiled %d events", p.Events)
	}
}

// TestAnalyzeEventsEmptyRing pins the zero-event path: a ring that has
// recorded nothing profiles cleanly and the report degrades to the
// header line alone (no eviction or occupancy sections).
func TestAnalyzeEventsEmptyRing(t *testing.T) {
	p := AnalyzeEvents(obs.NewEventRing(16))
	if p.Events != 0 || p.Hits != 0 || p.Misses != 0 || p.Adds != 0 || p.Evictions != 0 {
		t.Fatalf("empty ring profile = %+v, want all zeros", p)
	}
	if len(p.Occupancy) != 0 || p.OccupancyMax != 0 {
		t.Fatalf("empty ring produced occupancy samples: %+v", p)
	}
	var sb strings.Builder
	if err := p.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "events profiled: 0") {
		t.Errorf("report missing zero-count header:\n%s", out)
	}
	for _, absent := range []string{"eviction age", "occupancy high water"} {
		if strings.Contains(out, absent) {
			t.Errorf("empty-ring report includes %q section:\n%s", absent, out)
		}
	}
}

// TestAnalyzeEventsUnwrappedRing covers the short-run case the doc
// comment promises: when fewer events than the capacity were recorded,
// the profile covers the entire stream in insertion order.
func TestAnalyzeEventsUnwrappedRing(t *testing.T) {
	ring := obs.NewEventRing(16)
	ring.Add(obs.Event{Kind: obs.EventMiss, Time: 5, ID: -1, Size: 200})
	ring.Add(obs.Event{Kind: obs.EventAdd, Time: 5, ID: 4, Size: 200})
	ring.Add(obs.Event{Kind: obs.EventHit, Time: 8, ID: 4, Size: 200, NRef: 2})
	p := AnalyzeEvents(ring)
	if p.Events != 3 || p.Misses != 1 || p.Adds != 1 || p.Hits != 1 || p.Evictions != 0 {
		t.Fatalf("profile = %+v, want the full 3-event stream", p)
	}
	if uint64(p.Events) != ring.Total() {
		t.Errorf("profiled %d events but ring recorded %d — unwrapped window must be the whole stream", p.Events, ring.Total())
	}
	if len(p.Occupancy) != 1 || p.Occupancy[0] != (OccupancySample{Time: 5, Bytes: 200}) {
		t.Errorf("occupancy = %+v, want one +200 sample at t=5", p.Occupancy)
	}
	if p.OccupancyMax != 200 {
		t.Errorf("occupancy max = %d, want 200", p.OccupancyMax)
	}
}

func TestEventProfileWriteReport(t *testing.T) {
	events := []obs.Event{
		{Kind: obs.EventAdd, Time: 10, ID: 1, Size: 100},
		{Kind: obs.EventEvict, Time: 70, ID: 1, Size: 100, Age: 60, NRef: 2},
	}
	var sb strings.Builder
	if err := ProfileEvents(events).WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"events profiled: 2", "eviction age", "eviction-age classes", "occupancy high water"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
