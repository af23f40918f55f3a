package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vals: the smallest value with at least p% of the samples at or below
// it. It never interpolates, so the result is always a measured sample.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile's rank — the count a tail figure rests on.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p/100*float64(n)))
}

// summary is the spread recorded beside every reported value: the value
// itself is the median over reps of a per-rep figure.
type summary struct {
	Reps   int     `json:"reps"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Samples is how many raw measurements stand behind each per-rep
	// value (requests behind a percentile, calls behind a mean); 0 when
	// the per-rep value is a single reading.
	Samples int `json:"samples_per_rep,omitempty"`
}

// summarize computes the median and the quartiles the way Python's
// statistics.quantiles(vals, n=4) does (exclusive method), so the spread
// printed here is the spread an acceptance script computes.
func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	q := func(k int) float64 { // k-th quartile cut, exclusive method
		if n == 1 {
			return s[0]
		}
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return summary{Reps: n, Median: q(2), Q1: q(1), Q3: q(3), Min: s[0], Max: s[n-1]}
}

// reps collects per-rep values by metric name; value() is what a run
// reports for the metric.
type reps map[string][]float64

func (r reps) add(name string, v float64) { r[name] = append(r[name], v) }

func (r reps) value(name string) float64 { return summarize(r[name]).Median }
