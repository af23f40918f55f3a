package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bits.Len64(v) == i, i.e. bucket 0 holds
// v<=0, bucket i holds [2^(i-1), 2^i).
const histBuckets = 64

// Histogram is a lock-free power-of-two histogram for non-negative
// values (nanoseconds, bytes, depths). Observations and reads may race
// benignly: a concurrent snapshot sees each observation in either the
// before or after state, never torn.
type Histogram struct {
	count, sum atomic.Int64
	buckets    [histBuckets]atomic.Int64
}

// Observe records one value. Negative values count into bucket 0.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean observed value, 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Buckets returns the non-empty buckets as {upper bound, count} pairs
// in ascending order; the bound is exclusive (bucket i < 2^i).
func (h *Histogram) Buckets() []HistBucket {
	var out []HistBucket
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			bound := int64(0)
			if i > 0 && i < 63 {
				bound = int64(1) << uint(i)
			} else if i >= 63 {
				bound = 1<<63 - 1
			}
			out = append(out, HistBucket{UpperBound: bound, Count: n})
		}
	}
	return out
}

// HistBucket is one non-empty histogram bucket.
type HistBucket struct {
	UpperBound int64 `json:"le"` // exclusive; 0 = the v<=0 bucket
	Count      int64 `json:"count"`
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observed
// values from the power-of-two buckets, interpolating linearly inside
// the bucket holding the target rank. The estimate is exact for the
// bucket boundaries and within a factor of two elsewhere — good enough
// for the p50/p95/p99 latency lines the exposition reports. Returns 0
// when the histogram is empty.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	// rank is 1-based: the rank-th smallest observation, by the
	// nearest-rank rule rank = ceil(q·n). Flooring here understates
	// upper quantiles by one whole observation (p99 of 100 samples
	// would read the 98th smallest instead of the 99th).
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		if i == 0 {
			return 0 // the v<=0 bucket
		}
		lo := int64(1) << uint(i-1)
		hi := int64(1<<63 - 1)
		if i < 63 {
			hi = lo << 1
		}
		// Midpoint-rank interpolation: the rank-th observation sits at
		// the centre of its 1/c slice of the bucket, so the estimate
		// stays strictly inside [lo, hi) even at the bucket edges.
		frac := (float64(rank-cum) - 0.5) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	return 0
}

// Registry is a named collection of metrics. Get-or-create lookups
// take a mutex; the returned primitives are lock-free, so hooks hold a
// pointer and never touch the registry on the event path. A name is
// one metric of one kind: asking for it as another kind panics.
type Registry struct {
	mu sync.Mutex
	// metrics holds a *Counter, *Histogram, *WindowedCounter or
	// computed gauge (func() int64) per name.
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// lookup returns the metric registered as name, creating it with mk on
// first use. It panics when name is registered as another kind.
func lookup[M any](r *Registry, name string, mk func() M) M {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if v, ok := m.(M); ok {
			return v
		}
		panic(fmt.Sprintf("obs: metric %q is a %T, not a %T", name, m, *new(M)))
	}
	v := mk()
	r.metrics[name] = v
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, name, func() *Counter { return &Counter{} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return lookup(r, name, func() *Histogram { return &Histogram{} })
}

// Windowed returns the named windowed counter, creating it with the
// given window geometry on first use (zero values pick the package
// defaults). The geometry is fixed at creation: later calls return the
// existing counter regardless of the arguments.
func (r *Registry) Windowed(name string, window time.Duration, buckets int) *WindowedCounter {
	return lookup(r, name, func() *WindowedCounter { return NewWindowedCounter(window, buckets) })
}

// GaugeFunc registers a computed gauge: fn is evaluated at every
// snapshot/scrape rather than pushed to. Use it for values derived
// from other state (a windowed hit rate, a queue depth) so the surface
// is always current without a refresh ticker. Registering the same
// name again replaces the function. fn must not call back into the
// registry (the registry mutex is held during evaluation).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if _, ok := m.(func() int64); !ok {
			panic(fmt.Sprintf("obs: metric %q is a %T, not a %T", name, m, fn))
		}
	}
	r.metrics[name] = fn
}

// Snapshot returns every counter and gauge as a flat name→value map:
// counters contribute their value, windowed counters their
// recent-window total under the bare name (lifetime totals live in the
// plain counters alongside them), and computed gauges their function's
// value at snapshot time.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			out[name] = m.Load()
		case *WindowedCounter:
			out[name] = m.WindowTotal()
		case func() int64:
			out[name] = m()
		}
	}
	return out
}

// HistogramSnapshot returns every histogram's count, sum and non-empty
// buckets keyed by name.
func (r *Registry) HistogramSnapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any)
	for name, m := range r.metrics {
		h, ok := m.(*Histogram)
		if !ok {
			continue
		}
		out[name] = map[string]any{
			"count":   h.Count(),
			"sum":     h.Sum(),
			"p50":     h.Quantile(0.50),
			"p95":     h.Quantile(0.95),
			"p99":     h.Quantile(0.99),
			"buckets": h.Buckets(),
		}
	}
	return out
}

// WriteText renders all metrics in sorted "name value" lines.
// Histograms contribute count, sum and the p50/p95/p99 quantile
// estimates — the lines a latency report reads.
func (r *Registry) WriteText(w io.Writer) error {
	flat := r.Snapshot()
	for name, h := range r.HistogramSnapshot() {
		m := h.(map[string]any)
		flat[name+".count"] = m["count"]
		flat[name+".sum"] = m["sum"]
		flat[name+".p50"] = m["p50"]
		flat[name+".p95"] = m["p95"]
		flat[name+".p99"] = m["p99"]
	}
	names := make([]string, 0, len(flat))
	for name := range flat {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "%s %v\n", name, flat[name]); err != nil {
			return err
		}
	}
	return nil
}
