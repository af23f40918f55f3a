package trace_test

import (
	"slices"
	"testing"

	"webcache/internal/rng"
	"webcache/internal/trace"
	"webcache/internal/workload"
)

// TestValidatorChunkBoundaries splits one synthesized raw trace at day
// boundaries, as workload.GenerateValidated does, and at arbitrary
// chunk boundaries, and requires exactly Validate's requests and
// statistics from a Validator fed those chunks in place.
func TestValidatorChunkBoundaries(t *testing.T) {
	cfg, err := workload.ByName("BL", 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scale = 0.02
	raw, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats := trace.Validate(raw)
	n := len(raw.Requests)

	every := func(k int) []int {
		var cuts []int
		for c := k; c < n; c += k {
			cuts = append(cuts, c)
		}
		return cuts
	}
	var days []int
	for i := 1; i < n; i++ {
		if raw.Requests[i].Day(raw.Start) != raw.Requests[i-1].Day(raw.Start) {
			days = append(days, i)
		}
	}
	if len(days) < 10 {
		t.Fatalf("only %d day boundaries in %d requests", len(days), n)
	}
	r := rng.New(7)
	random := make([]int, 50)
	for i := range random {
		random[i] = r.Intn(n + 1)
	}
	slices.Sort(random)
	both := append(every(97), days...)
	slices.Sort(both)

	cases := []struct {
		name string
		cuts []int
	}{
		{"whole", nil},
		{"days", days},
		{"days and every 97", slices.Compact(both)},
		{"every request", every(1)},
		{"every 1000", every(1000)},
		{"empty chunks", []int{0, 0, n / 2, n / 2, n, n}},
		{"random", random},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, stats := trace.ValidateChunked(raw, c.cuts)
			if got.Name != want.Name || got.Start != want.Start {
				t.Fatalf("trace %q starting %d, want %q starting %d", got.Name, got.Start, want.Name, want.Start)
			}
			if *stats != *wantStats {
				t.Fatalf("stats %+v, want %+v", *stats, *wantStats)
			}
			if i := firstDifference(got.Requests, want.Requests); i >= 0 {
				t.Fatalf("%d requests kept, want %d; first difference at %d", len(got.Requests), len(want.Requests), i)
			}
		})
	}
}

// firstDifference returns the first index at which a and b differ, or
// -1 if they are equal.
func firstDifference(a, b []trace.Request) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}
