package core

import (
	"testing"

	"webcache/internal/policy"
	"webcache/internal/rng"
	"webcache/internal/trace"
)

func req(url string, size, t int64) *trace.Request {
	return &trace.Request{Time: t, URL: url, Status: 200, Size: size, Type: trace.ClassifyURL(url)}
}

func sizePolicy() policy.Policy {
	return policy.NewSorted([]policy.Key{policy.KeySize}, 0)
}

func TestHitRequiresURLAndSize(t *testing.T) {
	c := New(Config{Capacity: 0, Seed: 1})
	if c.Access(req("http://a/x.html", 100, 1)) {
		t.Fatal("first access hit")
	}
	if !c.Access(req("http://a/x.html", 100, 2)) {
		t.Fatal("same URL+size missed")
	}
	// Same URL, different size: the document changed -> miss, replace.
	if c.Access(req("http://a/x.html", 150, 3)) {
		t.Fatal("size-changed access hit")
	}
	st := c.Stats()
	if st.SizeChanges != 1 {
		t.Fatalf("SizeChanges = %d, want 1", st.SizeChanges)
	}
	// The replacement is the new size.
	if !c.Contains("http://a/x.html", 150) {
		t.Fatal("cache does not hold the new version")
	}
	if c.Contains("http://a/x.html", 100) {
		t.Fatal("cache claims to hold the stale version")
	}
	if !c.Access(req("http://a/x.html", 150, 4)) {
		t.Fatal("new version missed")
	}
}

func TestInfiniteCacheNeverEvicts(t *testing.T) {
	c := New(Config{Capacity: 0, Seed: 2})
	r := rng.New(3)
	for i := 0; i < 5000; i++ {
		size := int64(1 + r.Intn(100000))
		u := "http://s/doc" + itoa(r.Intn(1000)) + ".html"
		c.Access(req(u, size, int64(i)))
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Fatalf("infinite cache evicted %d documents", st.Evictions)
	}
	if st.MaxUsed != st.Used && st.SizeChanges == 0 {
		t.Fatalf("MaxUsed %d != Used %d with no size changes", st.MaxUsed, st.Used)
	}
	c.CheckInvariants()
}

func TestEvictionMakesRoom(t *testing.T) {
	c := New(Config{Capacity: 1000, Policy: sizePolicy(), Seed: 3})
	c.Access(req("http://a/big.dat", 900, 1))
	c.Access(req("http://a/small.dat", 200, 2)) // must evict big
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
	if !c.Contains("http://a/small.dat", 200) || c.Contains("http://a/big.dat", 900) {
		t.Fatal("wrong resident set after eviction")
	}
	if st.Used != 200 {
		t.Fatalf("Used = %d, want 200", st.Used)
	}
	c.CheckInvariants()
}

func TestSizePolicyEvictsLargestFirst(t *testing.T) {
	c := New(Config{Capacity: 1000, Policy: sizePolicy(), Seed: 4})
	c.Access(req("http://a/a.dat", 500, 1))
	c.Access(req("http://a/b.dat", 300, 2))
	c.Access(req("http://a/c.dat", 150, 3))
	// 950 used; a 100-byte doc forces one eviction: the 500-byte doc.
	c.Access(req("http://a/d.dat", 100, 4))
	if c.Contains("http://a/a.dat", 500) {
		t.Fatal("SIZE policy did not evict the largest document")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestTooLargeDocumentBypasses(t *testing.T) {
	c := New(Config{Capacity: 100, Policy: sizePolicy(), Seed: 5})
	c.Access(req("http://a/small.dat", 60, 1))
	c.Access(req("http://a/huge.dat", 500, 2))
	st := c.Stats()
	if st.Bypassed != 1 {
		t.Fatalf("Bypassed = %d, want 1", st.Bypassed)
	}
	if !c.Contains("http://a/small.dat", 60) {
		t.Fatal("bypass evicted the resident document")
	}
	if st.Evictions != 0 {
		t.Fatalf("bypass caused %d evictions", st.Evictions)
	}
}

func TestExcludeDynamic(t *testing.T) {
	c := New(Config{Capacity: 0, Seed: 6, ExcludeDynamic: true})
	c.Access(req("http://a/cgi-bin/q", 100, 1))
	if c.Len() != 0 {
		t.Fatal("dynamic document cached despite ExcludeDynamic")
	}
	if c.Access(req("http://a/cgi-bin/q", 100, 2)) {
		t.Fatal("dynamic document hit")
	}
	c.Access(req("http://a/x.html", 100, 3))
	if c.Len() != 1 {
		t.Fatal("static document not cached")
	}
}

func TestPerTypeStats(t *testing.T) {
	c := New(Config{Capacity: 0, Seed: 7})
	c.Access(req("http://a/s.au", 1000, 1))
	c.Access(req("http://a/s.au", 1000, 2))
	c.Access(req("http://a/p.gif", 10, 3))
	st := c.Stats()
	au := st.ByType[trace.Audio]
	if au.Requests != 2 || au.Hits != 1 || au.BytesHit != 1000 || au.BytesRequested != 2000 {
		t.Fatalf("audio stats %+v", au)
	}
	gr := st.ByType[trace.Graphics]
	if gr.Requests != 1 || gr.Hits != 0 {
		t.Fatalf("graphics stats %+v", gr)
	}
}

func TestOnEvictObserver(t *testing.T) {
	var evicted []string
	c := New(Config{
		Capacity: 100,
		Policy:   policy.NewLRU(),
		Seed:     8,
		OnEvict:  func(e *policy.Entry) { evicted = append(evicted, e.URL) },
	})
	c.Access(req("http://a/1.dat", 60, 1))
	c.Access(req("http://a/2.dat", 60, 2))
	if len(evicted) != 1 || evicted[0] != "http://a/1.dat" {
		t.Fatalf("evicted = %v", evicted)
	}
}

func TestSweep(t *testing.T) {
	c := New(Config{Capacity: 1000, Policy: sizePolicy(), Seed: 9})
	for i := 0; i < 9; i++ {
		c.Access(req("http://a/d"+itoa(i)+".dat", 100, int64(i)))
	}
	if c.Used() != 900 {
		t.Fatalf("Used = %d", c.Used())
	}
	removed := c.Sweep(0.5)
	if c.Used() > 500 {
		t.Fatalf("after Sweep(0.5), Used = %d", c.Used())
	}
	if removed == 0 {
		t.Fatal("Sweep removed nothing")
	}
	c.CheckInvariants()

	// Sweep on an infinite cache is a no-op.
	inf := New(Config{Capacity: 0, Seed: 10})
	inf.Access(req("http://a/x.dat", 10, 1))
	if n := inf.Sweep(0); n != 0 {
		t.Fatalf("infinite Sweep removed %d", n)
	}
}

func TestLatencyOf(t *testing.T) {
	// Verify LatencyOf feeds the KeyLatency extension key: the entry
	// cheapest to refetch is sacrificed first.
	c2 := New(Config{
		Capacity: 100, Seed: 12,
		Policy:    policy.NewSorted([]policy.Key{policy.KeyLatency}, 0),
		LatencyOf: func(url string, size int64) float64 { return float64(size) },
	})
	c2.Access(req("http://a/cheap.dat", 40, 1))  // latency 40
	c2.Access(req("http://a/costly.dat", 50, 2)) // latency 50
	c2.Access(req("http://a/new.dat", 50, 3))    // evicting cheap (40) suffices
	if c2.Contains("http://a/cheap.dat", 40) {
		t.Fatal("latency policy kept the cheapest-to-refetch document")
	}
	if !c2.Contains("http://a/costly.dat", 50) {
		t.Fatal("latency policy evicted the costliest document")
	}
}

// TestRandomTraceInvariants drives a small cache with a random request
// stream and checks bookkeeping invariants throughout.
func TestRandomTraceInvariants(t *testing.T) {
	policies := []func() policy.Policy{
		func() policy.Policy { return policy.NewSorted([]policy.Key{policy.KeySize}, 0) },
		func() policy.Policy { return policy.NewLRU() },
		func() policy.Policy { return policy.NewLFU() },
		func() policy.Policy { return policy.NewLRUMin() },
		func() policy.Policy { return policy.NewHyperG() },
		func() policy.Policy { return policy.NewPitkowRecker(0) },
		func() policy.Policy { return policy.NewGDS1() },
	}
	for pi, mk := range policies {
		pol := mk()
		c := New(Config{Capacity: 5000, Policy: pol, Seed: uint64(pi)})
		r := rng.New(uint64(100 + pi))
		for i := 0; i < 20000; i++ {
			u := "http://s/d" + itoa(r.Intn(300)) + ".dat"
			size := int64(1 + r.Intn(2000))
			// Reuse a stable size per URL most of the time so hits occur.
			if r.Float64() < 0.9 {
				size = int64(100 + len(u)*7)
			}
			c.Access(req(u, size, int64(i)))
			if i%997 == 0 {
				c.CheckInvariants()
			}
		}
		c.CheckInvariants()
		st := c.Stats()
		if st.Hits == 0 {
			t.Errorf("policy %s: no hits on a re-referencing stream", pol.Name())
		}
		if st.Used > 5000 {
			t.Errorf("policy %s: capacity exceeded: %d", pol.Name(), st.Used)
		}
	}
}

func TestHitRateAccessors(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 || s.WeightedHitRate() != 0 {
		t.Fatal("zero stats should have zero rates")
	}
	s.Requests, s.Hits = 4, 1
	s.BytesRequested, s.BytesHit = 100, 25
	if s.HitRate() != 0.25 || s.WeightedHitRate() != 0.25 {
		t.Fatalf("rates %v/%v", s.HitRate(), s.WeightedHitRate())
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// refusingPolicy tracks membership but never names a victim, so an
// Insert that needs room fails.
type refusingPolicy struct{ n int }

func (p *refusingPolicy) Name() string               { return "REFUSING" }
func (p *refusingPolicy) Add(*policy.Entry)          { p.n++ }
func (p *refusingPolicy) Touch(*policy.Entry)        {}
func (p *refusingPolicy) Remove(*policy.Entry)       { p.n-- }
func (p *refusingPolicy) Victim(int64) *policy.Entry { return nil }
func (p *refusingPolicy) Len() int                   { return p.n }

// TestLiveLookupMiss pins the first way the live API differs from
// Access: a Lookup miss counts a request of size 0, but stores nothing
// and draws no tiebreak value, so the next Insert gets the value it
// would have got without the Lookup.
func TestLiveLookupMiss(t *testing.T) {
	c := New(Config{Capacity: 1000, Policy: sizePolicy(), Seed: 7})
	if c.Lookup("http://a/x.html", 5) {
		t.Fatal("Lookup on an empty cache hit")
	}
	st := c.Stats()
	if st.Requests != 1 || st.BytesRequested != 0 || st.Docs != 0 || st.Inserted != 0 || c.Contains("http://a/x.html", 0) {
		t.Fatalf("after a Lookup miss: %+v", st)
	}
	c.Insert("http://a/x.html", 100, 6)

	fresh := New(Config{Capacity: 1000, Policy: sizePolicy(), Seed: 7})
	fresh.Insert("http://a/x.html", 100, 6)
	if got, want := c.entries["http://a/x.html"].Rand, fresh.entries["http://a/x.html"].Rand; got != want {
		t.Fatalf("tiebreak value %d, want %d: the Lookup miss drew from the stream", got, want)
	}
	if !c.Lookup("http://a/x.html", 7) {
		t.Fatal("Lookup after Insert missed")
	}
	if st := c.Stats(); st.Requests != 2 || st.Hits != 1 || st.BytesHit != 100 {
		t.Fatalf("after a Lookup hit: %+v", st)
	}
	c.CheckInvariants()
}

// TestLiveInsertSameSize pins the second: an Insert over a resident
// copy of the same size into a full cache replaces it without evicting
// anything. Docs and Used count only the new copy, and neither
// Evictions nor SizeChanges moves.
func TestLiveInsertSameSize(t *testing.T) {
	c := New(Config{Capacity: 300, Policy: sizePolicy(), Seed: 1})
	c.Insert("http://a/x.html", 100, 1)
	c.Insert("http://a/y.html", 200, 2)
	if !c.Insert("http://a/x.html", 100, 3) {
		t.Fatal("same-size replacement rejected")
	}
	st := c.Stats()
	if st.Docs != 2 || st.Used != 300 || st.Evictions != 0 || st.SizeChanges != 0 || st.Inserted != 3 {
		t.Fatalf("after a same-size replacement: %+v", st)
	}
	if !c.Contains("http://a/x.html", 100) || !c.Contains("http://a/y.html", 200) {
		t.Fatal("replacement lost a document")
	}
	c.CheckInvariants()
}

// TestLiveInsertOtherSize pins the second for a changed size, and the
// third: a replacement that finds no victim to make room leaves the old
// copy resident as it was, and the cache goes on working after it.
func TestLiveInsertOtherSize(t *testing.T) {
	c := New(Config{Capacity: 300, Policy: &refusingPolicy{}, Seed: 1})
	c.Insert("http://a/x.html", 100, 1)
	c.Insert("http://a/y.html", 200, 2)
	if c.Insert("http://a/x.html", 150, 3) {
		t.Fatal("replacement admitted with no victim to make room")
	}
	if st := c.Stats(); st.Docs != 2 || st.Used != 300 || !c.Contains("http://a/x.html", 100) {
		t.Fatalf("failed replacement did not keep the old copy: %+v", st)
	}
	c.CheckInvariants()
	if !c.Insert("http://a/x.html", 50, 4) {
		t.Fatal("replacement that fits rejected")
	}
	if !c.Insert("http://a/z.html", 40, 5) {
		t.Fatal("insert after the replacements rejected")
	}
	st := c.Stats()
	if st.Docs != 3 || st.Used != 290 || st.Evictions != 0 || st.SizeChanges != 0 {
		t.Fatalf("after a changed-size replacement: %+v", st)
	}
	if !c.Contains("http://a/x.html", 50) || c.Contains("http://a/x.html", 100) {
		t.Fatal("cache does not hold exactly the new copy")
	}
	c.CheckInvariants()
}
