// Package stats provides the measurement machinery the paper's figures
// need: per-day hit-rate series with the paper's 7-day moving average,
// histograms, rank-frequency (Zipf) analysis, scatter summaries, and
// fixed-width text tables.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// DayPoint is one recorded day of a daily series.
type DayPoint struct {
	Day   int     // day index since trace start
	Value float64 // e.g. that day's hit rate
}

// DailySeries accumulates a per-day ratio (hits/requests or bytes-hit/
// bytes-requested) and renders the paper's 7-day moving average.
//
// Days with no requests are not recorded; the moving average is taken
// over the previous seven *recorded* days, exactly as the paper handles
// the classroom workload ("every plotted point is the average of hit
// rates for the previous seven recorded days, no matter what amount of
// time has elapsed"). No point is produced for the first six recorded
// days.
type DailySeries struct {
	points []DayPoint
}

// Add records day's value. Days must be added in nondecreasing order;
// adding the same day again overwrites it.
func (s *DailySeries) Add(day int, value float64) {
	if n := len(s.points); n > 0 {
		last := &s.points[n-1]
		if day < last.Day {
			panic(fmt.Sprintf("stats: day %d added after day %d", day, last.Day))
		}
		if day == last.Day {
			last.Value = value
			return
		}
	}
	s.points = append(s.points, DayPoint{Day: day, Value: value})
}

// Grow makes room for n more recorded days without reallocating.
func (s *DailySeries) Grow(n int) { s.points = slices.Grow(s.points, n) }

// Raw returns the recorded daily points.
func (s *DailySeries) Raw() []DayPoint { return s.points }

// MovingAverage returns the 7-day moving average series: point i is the
// mean of recorded days i-6..i, emitted for i >= 6.
func (s *DailySeries) MovingAverage() []DayPoint {
	return s.MovingAverageN(7)
}

// MovingAverageN generalizes MovingAverage to an n-day window.
func (s *DailySeries) MovingAverageN(n int) []DayPoint {
	if n < 1 || len(s.points) < n {
		return nil
	}
	out := make([]DayPoint, 0, len(s.points)-n+1)
	sum := 0.0
	for i, p := range s.points {
		sum += p.Value
		if i >= n {
			sum -= s.points[i-n].Value
		}
		if i >= n-1 {
			out = append(out, DayPoint{Day: p.Day, Value: sum / float64(n)})
		}
	}
	return out
}

// Mean returns the mean of the recorded daily values (the paper's
// "averaged over all days in the trace" summary).
func (s *DailySeries) Mean() float64 {
	if len(s.points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.points {
		sum += p.Value
	}
	return sum / float64(len(s.points))
}

// RatioTo divides this series' moving average by base's moving average
// day by day (the Experiment 2 "percent of infinite cache HR" curves).
// Days present in only one series are skipped; days where base is zero
// are skipped.
func (s *DailySeries) RatioTo(base *DailySeries) []DayPoint {
	bm := base.MovingAverage()
	baseByDay := make(map[int]float64, len(bm))
	for _, p := range bm {
		baseByDay[p.Day] = p.Value
	}
	var out []DayPoint
	for _, p := range s.MovingAverage() {
		b, ok := baseByDay[p.Day]
		if !ok || b == 0 {
			continue
		}
		out = append(out, DayPoint{Day: p.Day, Value: p.Value / b})
	}
	return out
}

// MeanRatioTo returns the mean of RatioTo — a single-number summary of
// how close a policy runs to the infinite-cache bound. It walks both
// series once, keeping each moving-average window as a running sum
// updated in RatioTo's order, so the result is bit-identical to the
// mean of RatioTo's points, and it allocates nothing.
func (s *DailySeries) MeanRatioTo(base *DailySeries) float64 {
	const n = 7
	sum, count := 0.0, 0
	ssum, bsum := 0.0, 0.0
	j := 0
	for i, p := range s.points {
		ssum += p.Value
		if i >= n {
			ssum -= s.points[i-n].Value
		}
		for ; j < len(base.points) && base.points[j].Day <= p.Day; j++ {
			bsum += base.points[j].Value
			if j >= n {
				bsum -= base.points[j-n].Value
			}
		}
		// base.points[j-1] is base's last day up to p.Day.
		if i < n-1 || j < n || base.points[j-1].Day != p.Day {
			continue
		}
		if b := bsum / n; b != 0 {
			sum += ssum / n / b
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// Summary holds basic order statistics of a sample.
type Summary struct {
	N                int
	Mean, Min, Max   float64
	P25, Median, P75 float64
	StdDev           float64
}

// Summarize computes a Summary of xs (xs is not modified).
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	s.Min, s.Max = cp[0], cp[len(cp)-1]
	sum, sumSq := 0.0, 0.0
	for _, x := range cp {
		sum += x
		sumSq += x * x
	}
	s.Mean = sum / float64(s.N)
	variance := sumSq/float64(s.N) - s.Mean*s.Mean
	if variance > 0 {
		s.StdDev = math.Sqrt(variance)
	}
	s.P25 = quantileSorted(cp, 0.25)
	s.Median = quantileSorted(cp, 0.5)
	s.P75 = quantileSorted(cp, 0.75)
	return s
}

// quantileSorted returns the q-quantile of sorted xs by linear
// interpolation.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
