package core

import (
	"testing"

	"webcache/internal/policy"
	"webcache/internal/rng"
	"webcache/internal/trace"
)

func newTestTwoLevel(l1Cap int64) *TwoLevel {
	return NewTwoLevel(
		Config{Capacity: l1Cap, Policy: policy.NewSorted([]policy.Key{policy.KeySize}, 0), Seed: 1},
		Config{Capacity: 0, Seed: 2},
	)
}

// L2WeightedHitRate returns the second level cache's byte hit rate over
// all client-requested bytes.
func (t *TwoLevel) L2WeightedHitRate() float64 {
	if t.bytes == 0 {
		return 0
	}
	return float64(t.L2.Stats().BytesHit) / float64(t.bytes)
}

// Parts returns the number of partitions.
func (p *Partitioned) Parts() int { return len(p.parts) }

// PartitionWHROverAll returns partition i's bytes hit divided by the
// bytes requested across *all* partitions — the paper's Figs. 19-20
// measure ("the WHRs reported are over all requests").
func (p *Partitioned) PartitionWHROverAll(i int) float64 {
	if p.bytes == 0 {
		return 0
	}
	return float64(p.parts[i].Stats().BytesHit) / float64(p.bytes)
}

func TestTwoLevelHitLevels(t *testing.T) {
	tl := newTestTwoLevel(1000)
	r1 := req("http://a/x.dat", 400, 1)

	h1, h2 := tl.Access(r1)
	if h1 || h2 {
		t.Fatal("cold access hit somewhere")
	}
	// Both levels now hold x.
	h1, h2 = tl.Access(req("http://a/x.dat", 400, 2))
	if !h1 || h2 {
		t.Fatalf("second access: l1=%v l2=%v, want L1 hit", h1, h2)
	}
	// Force x out of L1 by filling it with something smaller after a
	// larger doc (SIZE evicts largest).
	tl.Access(req("http://a/y.dat", 700, 3)) // evicts x (400) or fits? 400+700>1000 -> evicts x
	if tl.L1.Contains("http://a/x.dat", 400) {
		t.Fatal("x still in L1")
	}
	h1, h2 = tl.Access(req("http://a/x.dat", 400, 4))
	if h1 || !h2 {
		t.Fatalf("post-eviction access: l1=%v l2=%v, want L2 hit", h1, h2)
	}
}

// TestTwoLevelInclusion: any document evicted from L1 must still be in
// L2 (the paper's arrangement), so an L1 miss over previously seen
// documents always hits L2.
func TestTwoLevelInclusion(t *testing.T) {
	tl := newTestTwoLevel(3000)
	r := rng.New(9)
	sizes := map[string]int64{}
	for i := 0; i < 5000; i++ {
		u := "http://s/d" + itoa(r.Intn(200)) + ".dat"
		size, ok := sizes[u]
		if !ok {
			size = int64(100 + r.Intn(900))
			sizes[u] = size
		}
		h1, h2 := tl.Access(&trace.Request{Time: int64(i), URL: u, Status: 200, Size: size})
		seenBefore := i > 0 && h1 || h2 // not a strict check; the real assertion follows
		_ = seenBefore
		if !h1 && !h2 {
			// Full miss: legal only the first time a (url,size) appears.
			if tl.L2.Stats().SizeChanges == 0 {
				// With stable sizes, L2 is infinite so a full miss means
				// first occurrence; verify L2 now holds it.
				if !tl.L2.Contains(u, size) {
					t.Fatalf("after miss, L2 lacks %s", u)
				}
			}
		}
	}
	// Inclusion: everything in L1 is in L2.
	for u, size := range sizes {
		if tl.L1.Contains(u, size) && !tl.L2.Contains(u, size) {
			t.Fatalf("L1 holds %s but L2 does not", u)
		}
	}
	tl.L1.CheckInvariants()
	tl.L2.CheckInvariants()
}

func TestTwoLevelRates(t *testing.T) {
	tl := newTestTwoLevel(500)
	// One document cycles: first access misses both, later accesses hit
	// L1 (it fits), so L2 hit rate stays 0.
	for i := 0; i < 10; i++ {
		tl.Access(req("http://a/x.dat", 100, int64(i)))
	}
	if tl.Requests() != 10 {
		t.Fatalf("Requests = %d", tl.Requests())
	}
	if hr := tl.L2HitRate(); hr != 0 {
		t.Fatalf("L2HitRate = %v, want 0", hr)
	}
	// Two alternating documents too big to coexist in L1: every access
	// after the first pair hits L2, not L1.
	tl2 := newTestTwoLevel(500)
	for i := 0; i < 10; i++ {
		u := "http://a/a.dat"
		if i%2 == 1 {
			u = "http://a/b.dat"
		}
		tl2.Access(req(u, 400, int64(i)))
	}
	if hr := tl2.L2HitRate(); hr != 0.8 {
		t.Fatalf("alternating L2HitRate = %v, want 0.8", hr)
	}
	if whr := tl2.L2WeightedHitRate(); whr != 0.8 {
		t.Fatalf("alternating L2WHR = %v, want 0.8", whr)
	}
}

func TestPartitionedRouting(t *testing.T) {
	part := NewAudioPartitioned(
		Config{Capacity: 10000, Policy: policy.NewSorted([]policy.Key{policy.KeySize}, 0), Seed: 1},
		Config{Capacity: 10000, Policy: policy.NewSorted([]policy.Key{policy.KeySize}, 0), Seed: 2},
	)
	part.Access(&trace.Request{Time: 1, URL: "http://a/s.au", Status: 200, Size: 500, Type: trace.Audio})
	part.Access(&trace.Request{Time: 2, URL: "http://a/p.gif", Status: 200, Size: 300, Type: trace.Graphics})
	if part.Partition(0).Len() != 1 || part.Partition(1).Len() != 1 {
		t.Fatalf("partition sizes %d/%d", part.Partition(0).Len(), part.Partition(1).Len())
	}
	if part.Partition(0).Used() != 500 || part.Partition(1).Used() != 300 {
		t.Fatalf("partition bytes %d/%d", part.Partition(0).Used(), part.Partition(1).Used())
	}
	if part.Parts() != 2 {
		t.Fatalf("Parts = %d", part.Parts())
	}
}

func TestPartitionedIsolation(t *testing.T) {
	// A flood of audio must not evict non-audio documents.
	part := NewAudioPartitioned(
		Config{Capacity: 1000, Policy: policy.NewSorted([]policy.Key{policy.KeySize}, 0), Seed: 1},
		Config{Capacity: 1000, Policy: policy.NewSorted([]policy.Key{policy.KeySize}, 0), Seed: 2},
	)
	part.Access(&trace.Request{Time: 1, URL: "http://a/page.html", Status: 200, Size: 800, Type: trace.Text})
	for i := 0; i < 50; i++ {
		part.Access(&trace.Request{Time: int64(2 + i), URL: "http://a/s" + itoa(i) + ".au", Status: 200, Size: 900, Type: trace.Audio})
	}
	if !part.Partition(1).Contains("http://a/page.html", 800) {
		t.Fatal("audio flood displaced a non-audio document across partitions")
	}
}

func TestPartitionWHROverAll(t *testing.T) {
	part := NewAudioPartitioned(
		Config{Capacity: 10000, Policy: policy.NewSorted([]policy.Key{policy.KeySize}, 0), Seed: 1},
		Config{Capacity: 10000, Policy: policy.NewSorted([]policy.Key{policy.KeySize}, 0), Seed: 2},
	)
	au := &trace.Request{Time: 1, URL: "http://a/s.au", Status: 200, Size: 600, Type: trace.Audio}
	tx := &trace.Request{Time: 2, URL: "http://a/t.html", Status: 200, Size: 400, Type: trace.Text}
	part.Access(au) // miss
	part.Access(tx) // miss
	au2 := *au
	au2.Time = 3
	part.Access(&au2) // audio hit: 600 bytes
	// Total requested: 1600; audio partition hit bytes 600.
	if got := part.PartitionWHROverAll(0); got != 600.0/1600.0 {
		t.Fatalf("audio WHR over all = %v, want %v", got, 600.0/1600.0)
	}
	if got := part.PartitionWHROverAll(1); got != 0 {
		t.Fatalf("non-audio WHR over all = %v, want 0", got)
	}
}
