package obs

// Windowed metrics: recent-window rates alongside the lifetime
// counters the registry already carries. A lifetime hit rate answers
// "how has this cache done since boot"; an operator watching a policy
// change, a flash crowd, or a shadow-policy comparison needs "how is
// it doing *now*" — the last minute, not the last month. The windowed
// layer answers that with a ring of time buckets: each observation
// lands in the bucket covering its timestamp, and the window total is
// the sum of the buckets still inside the sliding window. The estimate
// is bucket-granular (a window of B buckets is off by at most one
// bucket's worth of time at the trailing edge), which is exactly the
// resolution an operations dashboard needs and costs no per-event
// allocation or lock. Every write and read takes the caller's time in
// nanoseconds, so a caller that updates several rates for one event
// reads its clock once.

import (
	"sync/atomic"
	"time"
)

// DefaultWindow is the sliding-window length of every windowed
// metric: long enough to smooth request-level noise, short enough that
// a policy or workload shift is visible within a minute.
const DefaultWindow = time.Minute

// DefaultWindowBuckets is the bucket count per window: 12 buckets give
// 5-second resolution on the one-minute window.
const DefaultWindowBuckets = 12

// bucketNs is one bucket's span in nanoseconds.
const bucketNs = int64(DefaultWindow) / DefaultWindowBuckets

// windowedCounter counts events into a ring of time buckets, giving
// both a lifetime total and the total over the most recent window.
// Add and the readers are lock-free; concurrent adds racing a bucket's
// reuse (the ring coming back around to a stale epoch) may lose the
// few counts that land during the reset — bounded by one bucket
// rotation, an accepted imprecision for an observability rate. With a
// single writer (or one fixed time) the counts are exact.
type windowedCounter struct {
	epochs [DefaultWindowBuckets]atomic.Int64 // bucket-epoch stamp per slot
	counts [DefaultWindowBuckets]atomic.Int64
	total  atomic.Int64
}

// Add counts n into the bucket covering nowNs and the lifetime total.
func (w *windowedCounter) Add(n, nowNs int64) {
	w.total.Add(n)
	ep := nowNs / bucketNs
	i := int(ep % DefaultWindowBuckets)
	if w.epochs[i].Load() != ep {
		// The slot still holds a previous rotation; claim it for this
		// epoch. Only the goroutine that wins the swap resets the count,
		// so concurrent adds in the new epoch are kept (adds racing the
		// reset itself may be lost — see the type comment).
		if old := w.epochs[i].Swap(ep); old != ep {
			w.counts[i].Store(0)
		}
	}
	w.counts[i].Add(n)
}

// Total returns the lifetime total.
func (w *windowedCounter) Total() int64 { return w.total.Load() }

// WindowTotal returns the total counted over the window ending at
// nowNs: the sum of every bucket whose epoch is still inside it.
func (w *windowedCounter) WindowTotal(nowNs int64) int64 {
	ep := nowNs / bucketNs
	lo := ep - DefaultWindowBuckets + 1
	var sum int64
	for i := range w.counts {
		if e := w.epochs[i].Load(); e >= lo && e <= ep {
			sum += w.counts[i].Load()
		}
	}
	return sum
}

// WindowedRate tracks a part/whole pair over a sliding window — a hit
// rate (part = hits, whole = requests), a weighted hit rate (part =
// bytes served from cache, whole = bytes requested). Both components
// cover the same buckets, so the ratio compares like-for-like time
// spans.
type WindowedRate struct {
	part, whole windowedCounter
}

// NewWindowedRate returns a rate over the last DefaultWindow.
func NewWindowedRate() *WindowedRate { return &WindowedRate{} }

// Record counts one observation at nowNs: part of whole (e.g.
// Record(size, size, now) for a byte hit, Record(0, size, now) for a
// byte miss).
func (r *WindowedRate) Record(part, whole, nowNs int64) {
	if part != 0 {
		r.part.Add(part, nowNs)
	}
	r.whole.Add(whole, nowNs)
}

// Observe counts one boolean outcome at nowNs into a unit-weighted
// rate.
func (r *WindowedRate) Observe(hit bool, nowNs int64) {
	if hit {
		r.Record(1, 1, nowNs)
	} else {
		r.Record(0, 1, nowNs)
	}
}

// Rate returns part/whole over the window ending at nowNs, 0 when the
// window is empty.
func (r *WindowedRate) Rate(nowNs int64) float64 {
	whole := r.whole.WindowTotal(nowNs)
	if whole == 0 {
		return 0
	}
	return float64(r.part.WindowTotal(nowNs)) / float64(whole)
}

// LifetimeRate returns part/whole since creation, 0 when empty.
func (r *WindowedRate) LifetimeRate() float64 {
	whole := r.whole.Total()
	if whole == 0 {
		return 0
	}
	return float64(r.part.Total()) / float64(whole)
}

// WindowCounts returns the (part, whole) totals over the window ending
// at nowNs.
func (r *WindowedRate) WindowCounts(nowNs int64) (part, whole int64) {
	return r.part.WindowTotal(nowNs), r.whole.WindowTotal(nowNs)
}
