package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 1, 3, 500, -2} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); got != 503 {
		t.Fatalf("sum = %d, want 503", got)
	}
	if got, want := h.Mean(), 503.0/6; got != want {
		t.Fatalf("mean = %g, want %g", got, want)
	}
	buckets := h.Buckets()
	// 0 and -2 land in the v<=0 bucket; 1,1 in [1,2); 3 in [2,4);
	// 500 in [256,512).
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total != 6 {
		t.Fatalf("bucket counts sum to %d, want 6", total)
	}
	if buckets[0].UpperBound != 0 || buckets[0].Count != 2 {
		t.Fatalf("v<=0 bucket = %+v, want {0 2}", buckets[0])
	}
	last := buckets[len(buckets)-1]
	if last.UpperBound != 512 || last.Count != 1 {
		t.Fatalf("top bucket = %+v, want {512 1}", last)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 100 observations of exactly 1000: every quantile lands in the
	// [512, 1024) bucket.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	for _, q := range []float64{0.50, 0.95, 0.99, 1.0} {
		got := h.Quantile(q)
		if got < 512 || got >= 1024 {
			t.Errorf("Quantile(%.2f) = %d, want within [512,1024)", q, got)
		}
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	var h Histogram
	// 90 small values and 10 large ones: p50 must sit in the small
	// bucket, p95/p99 in the large one — the latency-tail shape the
	// exposition exists to report.
	for i := 0; i < 90; i++ {
		h.Observe(10) // bucket [8,16)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000) // bucket [65536,131072)
	}
	if p50 := h.Quantile(0.50); p50 < 8 || p50 >= 16 {
		t.Errorf("p50 = %d, want within [8,16)", p50)
	}
	if p95 := h.Quantile(0.95); p95 < 65536 || p95 >= 131072 {
		t.Errorf("p95 = %d, want within [65536,131072)", p95)
	}
	if p99 := h.Quantile(0.99); p99 < 65536 || p99 >= 131072 {
		t.Errorf("p99 = %d, want within [65536,131072)", p99)
	}
	// Interpolation is monotone inside the bucket.
	if h.Quantile(0.99) < h.Quantile(0.95) {
		t.Errorf("p99 %d < p95 %d", h.Quantile(0.99), h.Quantile(0.95))
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
	var h Histogram
	h.Observe(-5)
	h.Observe(0)
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("all-nonpositive Quantile = %d, want 0 (the v<=0 bucket)", got)
	}
	h.Observe(7)
	// Out-of-range q is clamped, not a panic.
	if got := h.Quantile(1.5); got < 4 || got >= 8 {
		t.Errorf("Quantile(1.5) = %d, want within [4,8)", got)
	}
	if got := h.Quantile(-0.5); got != 0 {
		t.Errorf("Quantile(-0.5) = %d, want 0 (lowest observation's bucket)", got)
	}
}

// TestHistogramQuantilePinned pins exact quantile values on a known
// distribution, the regression test for the rank computation: the rank
// is the nearest-rank ceil(q·n), not a floored index. Flooring
// understates upper quantiles by one whole observation — with two of
// 100 samples in the top bucket, a floored p99 reads the 98th smallest
// and misses the tail entirely.
func TestHistogramQuantilePinned(t *testing.T) {
	var h Histogram
	// 1024 observations, all in the [1024, 2048) bucket: quantiles are
	// pure within-bucket interpolation with no bucket-walk ambiguity.
	// p50: rank ceil(0.5·1024) = 512 → 1024 + (512-0.5)/1024·1024 = 1535.
	// p99: rank ceil(0.99·1024) = 1014 → 1024 + 1013 = 2037.
	for i := 0; i < 1024; i++ {
		h.Observe(1024 + int64(i)%1024)
	}
	if got := h.Quantile(0.50); got != 1535 {
		t.Errorf("p50 = %d, want 1535", got)
	}
	if got := h.Quantile(0.99); got != 2037 {
		t.Errorf("p99 = %d, want 2037", got)
	}

	// The floor-vs-ceil distinguisher: 98 fast observations and 2 slow
	// ones. The 99th smallest is slow, so p99 must land in the slow
	// bucket; floored rank (98) would report the fast bucket.
	var tail Histogram
	for i := 0; i < 98; i++ {
		tail.Observe(1)
	}
	tail.Observe(1 << 14)
	tail.Observe(1 << 14)
	if got := tail.Quantile(0.99); got < 1<<14 || got >= 1<<15 {
		t.Errorf("p99 = %d, want within the slow bucket [%d,%d)", got, 1<<14, 1<<15)
	}
}

func TestHistogramSnapshotHasQuantiles(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat").Observe(100)
	hs := r.HistogramSnapshot()
	m := hs["lat"].(map[string]any)
	for _, key := range []string{"p50", "p95", "p99"} {
		v, ok := m[key].(int64)
		if !ok {
			t.Fatalf("snapshot missing %s: %v", key, m)
		}
		if v < 64 || v >= 128 {
			t.Errorf("%s = %d, want within [64,128)", key, v)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Count() != 0 || len(h.Buckets()) != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("cache.hits")
	c1.Add(7)
	if c2 := r.Counter("cache.hits"); c2 != c1 {
		t.Fatal("second Counter lookup returned a different instance")
	}
	if r.Counter("cache.misses") == c1 {
		t.Fatal("distinct names share a counter")
	}
	r.Histogram("replay.ns").Observe(100)

	snap := r.Snapshot()
	if snap["cache.hits"] != int64(7) {
		t.Fatalf("snapshot cache.hits = %v, want 7", snap["cache.hits"])
	}
	hs := r.HistogramSnapshot()
	if _, ok := hs["replay.ns"]; !ok {
		t.Fatal("histogram missing from snapshot")
	}
}

// TestRegistryRefusesNameUnderTwoKinds pins that one name is one
// metric: asking for it as another kind panics instead of creating a
// second metric that the exposition would shadow. Re-registering a
// computed gauge replaces its function.
func TestRegistryRefusesNameUnderTwoKinds(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("store.hits", func() int64 { return 1 })
	r.GaugeFunc("store.hits", func() int64 { return 2 })
	if got := r.Snapshot()["store.hits"]; got != int64(2) {
		t.Fatalf("re-registered computed gauge reads %v, want 2", got)
	}
	r.Counter("c")
	r.Histogram("h")
	register := map[string]func(name string){
		"Counter":   func(name string) { r.Counter(name) },
		"Histogram": func(name string) { r.Histogram(name) },
		"GaugeFunc": func(name string) { r.GaugeFunc(name, func() int64 { return 0 }) },
	}
	owner := map[string]string{"c": "Counter", "h": "Histogram", "store.hits": "GaugeFunc"}
	for name, kind := range owner {
		for other, reg := range register {
			if other == kind {
				continue
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%q) after %s did not panic", other, name, kind)
					}
				}()
				reg(name)
			}()
		}
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Histogram("h").Observe(5)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Sorted by name: a.count, b.count, then the histogram's derived rows.
	if !strings.HasPrefix(lines[0], "a.count 1") || !strings.HasPrefix(lines[1], "b.count 2") {
		t.Fatalf("text exposition not sorted:\n%s", out)
	}
	if !strings.Contains(out, "h.count 1") || !strings.Contains(out, "h.sum 5") {
		t.Fatalf("histogram rows missing:\n%s", out)
	}
	for _, want := range []string{"h.p50 ", "h.p95 ", "h.p99 "} {
		if !strings.Contains(out, want) {
			t.Fatalf("quantile row %q missing:\n%s", want, out)
		}
	}
}
