package policy

import (
	"math/rand"
	"testing"
)

// benchComparatorPairs builds a fixed pool of entries with keys
// packed, plus a pre-drawn index sequence, so the benchmark loop
// measures only comparator calls.
func benchComparatorPairs(keys []Key, dayStart int64) ([]*Entry, []int) {
	r := rand.New(rand.NewSource(7))
	entries := randomEntries(r, 512)
	for _, e := range entries {
		packKey(e, keys, dayStart)
	}
	picks := make([]int, 4096)
	for i := range picks {
		picks[i] = r.Intn(len(entries))
	}
	return entries, picks
}

// comparatorCases are the key sequences whose comparators dominate the
// replay sweeps: the workhorse Experiment 2 pair, the day-keyed
// Pitkow/Recker pair, and the Hyper-G triple.
var comparatorCases = []struct {
	name string
	keys []Key
}{
	{"SIZE-ATIME", []Key{KeySize, KeyATime}},
	{"DAYATIME-SIZE", []Key{KeyDayATime, KeySize}},
	{"NREF-ATIME-SIZE", []Key{KeyNRef, KeyATime, KeySize}},
}

// BenchmarkLessKey measures the removal-order comparator on packed
// keys.
func BenchmarkLessKey(b *testing.B) {
	const dayStart = 500
	for _, tc := range comparatorCases {
		b.Run(tc.name, func(b *testing.B) {
			entries, picks := benchComparatorPairs(tc.keys, dayStart)
			b.ReportAllocs()
			b.ResetTimer()
			sink := false
			for i := 0; i < b.N; i++ {
				a := entries[picks[i%len(picks)]]
				c := entries[picks[(i+1)%len(picks)]]
				sink = lessKey(a, c) != sink
			}
			_ = sink
		})
	}
}
