package pqueue

import (
	"testing"

	"webcache/internal/rng"
)

// benchItems returns n items with pre-generated random keys, built
// outside the timed region.
func benchItems(n int) []*item {
	r := rng.New(17)
	items := make([]*item, n)
	for i := range items {
		items[i] = &item{key: r.Intn(1 << 20), idx: -1}
	}
	return items
}

func benchmarkPush(b *testing.B, n int) {
	items := benchItems(n)
	h := newHeap()
	h.Grow(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, it := range items {
			h.Push(it)
		}
		b.StopTimer()
		h.Clear()
		b.StartTimer()
	}
}

func BenchmarkPush1k(b *testing.B)  { benchmarkPush(b, 1024) }
func BenchmarkPush16k(b *testing.B) { benchmarkPush(b, 16384) }

// BenchmarkFix re-sifts random items of a steady heap with fresh random
// keys — the dominant heap operation of a cache replay (every hit
// touches one entry).
func benchmarkFix(b *testing.B, n int) {
	items := benchItems(n)
	h := newHeap()
	h.Grow(n)
	for _, it := range items {
		h.Push(it)
	}
	r := rng.New(23)
	picks := make([]int, 4096)
	keys := make([]int, 4096)
	for i := range picks {
		picks[i] = r.Intn(n)
		keys[i] = r.Intn(1 << 20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[picks[i%len(picks)]]
		it.key = keys[i%len(keys)]
		h.Fix(it)
	}
}

func BenchmarkFix1k(b *testing.B)  { benchmarkFix(b, 1024) }
func BenchmarkFix16k(b *testing.B) { benchmarkFix(b, 16384) }

// BenchmarkRemovePush removes a random item and pushes it back — the
// eviction/insert cycle of a full cache at steady state.
func BenchmarkRemovePush(b *testing.B) {
	const n = 4096
	items := benchItems(n)
	h := newHeap()
	h.Grow(n)
	for _, it := range items {
		h.Push(it)
	}
	r := rng.New(29)
	picks := make([]int, 4096)
	for i := range picks {
		picks[i] = r.Intn(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[picks[i%len(picks)]]
		h.Remove(it)
		h.Push(it)
	}
}
