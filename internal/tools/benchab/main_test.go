package main

import (
	"strings"
	"testing"
)

func TestQuartiles(t *testing.T) {
	if got := quartiles([]float64{5, 1, 3, 2, 4}); got != [3]float64{2, 3, 4} {
		t.Errorf("quartiles of 1..5 = %v, want [2 3 4]", got)
	}
	if got := quartiles([]float64{4, 1, 3, 2}); got != [3]float64{1.75, 2.5, 3.25} {
		t.Errorf("quartiles of 1..4 = %v, want [1.75 2.5 3.25]", got)
	}
	if got := quartiles([]float64{7}); got != [3]float64{7, 7, 7} {
		t.Errorf("quartiles of one value = %v", got)
	}
}

func TestSummarizeVerdicts(t *testing.T) {
	higher := metricSpec{Name: "throughput_rps", Better: "higher", Bound: 0.25}
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.25}
	parent := []float64{100, 102, 98, 101, 99}
	cases := []struct {
		m      metricSpec
		change []float64
		want   []string
	}{
		{higher, []float64{300, 310, 290, 305, 295}, []string{"wins 5, loses 0 of 5", "better by more than the parent's IQR"}},
		{higher, []float64{70, 71, 69, 70, 72}, []string{"wins 0, loses 5 of 5", "REGRESSION beyond the 25% bound"}},
		{lower, []float64{110, 112, 108, 111, 109}, []string{"wins 0, loses 5 of 5", "worse by more than the parent's IQR, inside the bound"}},
		{lower, []float64{100, 103, 97, 101, 99}, []string{"wins 1, loses 1 of 5", "within the parent's IQR"}},
	}
	for _, tc := range cases {
		got := summarize(tc.m, parent, tc.change)
		for _, want := range tc.want {
			if !strings.Contains(got, want) {
				t.Errorf("%s %v:\n%s\nlacks %q", tc.m.Name, tc.change, got, want)
			}
		}
	}
}
