package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWindowedCounterSlidesOut(t *testing.T) {
	var w windowedCounter
	w.Add(3, 0) // bucket epoch 0
	t5 := 5*bucketNs + 1
	w.Add(4, t5) // bucket epoch 5
	if got := w.WindowTotal(t5); got != 7 {
		t.Fatalf("WindowTotal with both buckets live = %d, want 7", got)
	}
	if got := w.Total(); got != 7 {
		t.Fatalf("Total = %d, want 7", got)
	}

	// Advance so epoch 0 falls outside the window but epoch 5 is still
	// inside.
	// The window ending in epoch 12 covers epochs 1..12.
	if got := w.WindowTotal(DefaultWindowBuckets*bucketNs + 1); got != 4 {
		t.Fatalf("WindowTotal after first bucket expired = %d, want 4", got)
	}

	// Advance past everything: window empty, lifetime intact.
	if got := w.WindowTotal(100 * bucketNs); got != 0 {
		t.Fatalf("WindowTotal after window passed = %d, want 0", got)
	}
	if got := w.Total(); got != 7 {
		t.Fatalf("Total after window passed = %d, want 7", got)
	}
}

func TestWindowedCounterBucketReuse(t *testing.T) {
	var w windowedCounter
	w.Add(5, 0) // epoch 0, slot 0
	// Come all the way around the ring to epoch 12, which reuses slot 0:
	// the old count must be discarded, not added to.
	t12 := DefaultWindowBuckets * bucketNs
	w.Add(2, t12)
	if got := w.WindowTotal(t12); got != 2 {
		t.Fatalf("WindowTotal after slot reuse = %d, want 2 (stale count leaked)", got)
	}
	if got := w.Total(); got != 7 {
		t.Fatalf("Total = %d, want 7", got)
	}
}

// TestWindowedCounterDefaults pins the one geometry: a count stays in
// the window until DefaultWindow has passed since its bucket began,
// at DefaultWindowBuckets buckets.
func TestWindowedCounterDefaults(t *testing.T) {
	if got := time.Duration(bucketNs * DefaultWindowBuckets); got != DefaultWindow {
		t.Fatalf("%d buckets of %v cover %v, want %v", DefaultWindowBuckets, time.Duration(bucketNs), got, DefaultWindow)
	}
	var w windowedCounter
	w.Add(1, 0)
	if got := w.WindowTotal(0); got != 1 {
		t.Fatalf("WindowTotal immediately after Add = %d, want 1", got)
	}
	if got := w.WindowTotal(int64(DefaultWindow) - 1); got != 1 {
		t.Fatalf("WindowTotal just inside the window = %d, want 1", got)
	}
	if got := w.WindowTotal(int64(DefaultWindow)); got != 0 {
		t.Fatalf("WindowTotal one window later = %d, want 0", got)
	}
	if got := w.Total(); got != 1 {
		t.Fatalf("Total = %d, want 1", got)
	}
}

func TestWindowedCounterConcurrentAdds(t *testing.T) {
	// At one fixed time there is no bucket rotation, so concurrent
	// adds must be exact in both totals.
	var w windowedCounter

	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				w.Add(1, 0)
			}
		}()
	}
	wg.Wait()
	if got, want := w.Total(), int64(writers*perWriter); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
	if got, want := w.WindowTotal(0), int64(writers*perWriter); got != want {
		t.Fatalf("WindowTotal = %d, want %d", got, want)
	}
}

func TestWindowedRate(t *testing.T) {
	r := NewWindowedRate()

	// Three hits out of four requests in the first bucket.
	r.Observe(true, 0)
	r.Observe(true, 0)
	r.Observe(true, 0)
	r.Observe(false, 0)
	if got := r.Rate(0); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("Rate = %v, want 0.75", got)
	}
	if got := r.LifetimeRate(); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("LifetimeRate = %v, want 0.75", got)
	}

	// A later bucket of all misses drags the window down; lifetime
	// follows a different trajectory.
	t5 := 5*bucketNs + 1
	r.Observe(false, t5)
	r.Observe(false, t5)
	part, whole := r.WindowCounts(t5)
	if part != 3 || whole != 6 {
		t.Fatalf("WindowCounts = (%d, %d), want (3, 6)", part, whole)
	}

	// Slide the hit-heavy bucket out: the window is all misses now even
	// though lifetime still remembers the hits.
	if got := r.Rate(DefaultWindowBuckets*bucketNs + 1); got != 0 {
		t.Fatalf("Rate after hit bucket expired = %v, want 0", got)
	}
	if got := r.LifetimeRate(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("LifetimeRate = %v, want 0.5", got)
	}

	// Empty window and empty lifetime both report 0, not NaN.
	empty := NewWindowedRate()
	if got := empty.Rate(0); got != 0 {
		t.Fatalf("empty Rate = %v, want 0", got)
	}
	if got := empty.LifetimeRate(); got != 0 {
		t.Fatalf("empty LifetimeRate = %v, want 0", got)
	}
}

func TestWindowedRateWeighted(t *testing.T) {
	r := NewWindowedRate()
	r.Record(1000, 1000, 0) // byte hit
	r.Record(0, 3000, 0)    // byte miss
	if got := r.Rate(0); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("weighted Rate = %v, want 0.25", got)
	}
}

// TestRegistryWindowedAndGaugeFunc publishes a windowed rate's counts
// as computed gauges, the way the proxy publishes its store's window,
// and checks the snapshot and the text exposition read the window at
// scrape time.
func TestRegistryWindowedAndGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	var now int64 // the scrape time the gauge reads the window at
	r := NewWindowedRate()
	reg.GaugeFunc("store.window_gets", func() int64 { _, whole := r.WindowCounts(now); return whole })
	for i := 0; i < 6; i++ {
		r.Observe(false, now)
	}

	reg.GaugeFunc("store.window_hr_bp", func() int64 { return 1234 })

	snap := reg.Snapshot()
	if got := snap["store.window_gets"]; got != int64(6) {
		t.Fatalf("snapshot windowed value = %v, want 6", got)
	}
	if got := snap["store.window_hr_bp"]; got != int64(1234) {
		t.Fatalf("snapshot gauge-func value = %v, want 1234", got)
	}

	// The window slides out of the snapshot too.
	now = 100 * bucketNs
	if got := reg.Snapshot()["store.window_gets"]; got != int64(0) {
		t.Fatalf("snapshot windowed value after expiry = %v, want 0", got)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	text := sb.String()
	if !strings.Contains(text, "store.window_gets 0") {
		t.Fatalf("WriteText missing windowed line:\n%s", text)
	}
	if !strings.Contains(text, "store.window_hr_bp 1234") {
		t.Fatalf("WriteText missing gauge-func line:\n%s", text)
	}
}
