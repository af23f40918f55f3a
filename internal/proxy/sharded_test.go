package proxy

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"webcache/internal/obs"
	"webcache/internal/policy"
	"webcache/internal/rng"
)

func mustPolicy(t *testing.T, spec string) policy.Policy {
	t.Helper()
	p, err := policy.Parse(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestShardedQuotaRemainderRule pins the documented capacity split:
// capacity/shards each, one extra byte to the first capacity%shards
// shards, quotas summing exactly to the requested capacity.
func TestShardedQuotaRemainderRule(t *testing.T) {
	cases := []struct {
		capacity int64
		shards   int
		want     []int64
	}{
		{103, 4, []int64{26, 26, 26, 25}},
		{100, 4, []int64{25, 25, 25, 25}},
		{7, 3, []int64{3, 2, 2}},
		{5, 8, []int64{1, 1, 1, 1, 1, 0, 0, 0}},
		{64 << 10, 1, []int64{64 << 10}},
	}
	for _, tc := range cases {
		s := NewShardedStore(tc.capacity, tc.shards, nil)
		var sum int64
		for i, sh := range s.shards {
			if sh.capacity != tc.want[i] {
				t.Errorf("capacity %d over %d shards: shard %d quota = %d, want %d",
					tc.capacity, tc.shards, i, sh.capacity, tc.want[i])
			}
			sum += sh.capacity
		}
		if sum != tc.capacity {
			t.Errorf("capacity %d over %d shards: quotas sum to %d", tc.capacity, tc.shards, sum)
		}
	}
}

// TestShardedRoutingIsStableAndSpread checks the FNV routing: the same
// URL always lands on the same shard, and a realistic URL population
// reaches every shard.
func TestShardedRoutingIsStableAndSpread(t *testing.T) {
	const shards = 8
	s := NewShardedStore(1<<20, shards, nil)
	seen := make([]int, shards)
	for i := 0; i < 1000; i++ {
		url := fmt.Sprintf("http://server%d.example.com/path/doc%d.html", i%17, i)
		idx := shardIndex(url, shards)
		if again := shardIndex(url, shards); again != idx {
			t.Fatalf("shardIndex(%q) unstable: %d then %d", url, idx, again)
		}
		seen[idx]++
		s.Put(url, &Object{Body: make([]byte, 100), StoredAt: time.Now()})
		if _, ok := s.shards[idx].Peek(url); !ok {
			t.Fatalf("object %q not in its routed shard %d", url, idx)
		}
	}
	for i, n := range seen {
		if n == 0 {
			t.Errorf("shard %d received no URLs out of 1000", i)
		}
	}
	if s.Len() != 1000 {
		t.Errorf("Len = %d, want 1000", s.Len())
	}
}

// TestShardedStatsAggregate checks that the interface-level counters
// are sums over shards.
func TestShardedStatsAggregate(t *testing.T) {
	s := NewShardedStore(1<<20, 4, nil)
	for i := 0; i < 100; i++ {
		url := fmt.Sprintf("http://h/doc%d.html", i)
		s.Put(url, &Object{Body: make([]byte, 64), StoredAt: time.Now()})
		s.Get(url)
		s.Get("http://h/missing.html")
	}
	st := s.Stats()
	if st.Puts != 100 || st.Gets != 200 || st.Hits != 100 || st.Docs != 100 {
		t.Errorf("aggregated stats = %+v", st)
	}
	if st.Used != 100*64 {
		t.Errorf("aggregated Used = %d, want %d", st.Used, 100*64)
	}
	var fromShards StoreStats
	for _, ss := range s.ShardStats() {
		fromShards.Gets += ss.Gets
		fromShards.Hits += ss.Hits
		fromShards.Puts += ss.Puts
		fromShards.Docs += ss.Docs
		fromShards.Used += ss.Used
		fromShards.MaxUsed += ss.MaxUsed
		fromShards.Evictions += ss.Evictions
		fromShards.Capacity += ss.Capacity
	}
	if fromShards.Capacity != 1<<20 {
		t.Errorf("shard quotas sum to %d, want the requested capacity %d", fromShards.Capacity, 1<<20)
	}
	if !reflect.DeepEqual(st, fromShards) {
		t.Errorf("Stats() = %+v but ShardStats sums to %+v", st, fromShards)
	}
}

// TestShardedOneShardByteEquivalent replays one deterministic op
// sequence — fixed seed, fixed clock, eviction-heavy — against the
// single-mutex Store and a 1-shard ShardedStore, and requires
// identical counters, contents, and sizes. This is the contract that
// makes the sharded store a drop-in: with N=1 the quota rule, the seed
// derivation, and the routing all collapse to the single store's
// behavior exactly.
func TestShardedOneShardByteEquivalent(t *testing.T) {
	const capacity = 48 << 10
	for _, spec := range []string{"SIZE", "LRU", "LFU", "LRU-MIN"} {
		t.Run(spec, func(t *testing.T) {
			single := NewStore(capacity, mustPolicy(t, spec))
			sharded := NewShardedStore(capacity, 1, func() policy.Policy {
				p, _ := policy.Parse(spec, 0)
				return p
			})
			var now int64 = 1_000_000
			clock := func() time.Time { return time.Unix(now, 0) }
			both := []ObjectStore{single, sharded}
			for _, s := range both {
				s.SetSeed(0xfeedface)
				s.SetClock(clock)
			}

			r := rng.New(99)
			urls := make([]string, 400)
			for i := range urls {
				urls[i] = fmt.Sprintf("http://host%d.example.com/doc%d.html", i%7, i)
			}
			for i := 0; i < 8000; i++ {
				now++
				url := urls[r.Intn(len(urls))]
				switch op := r.Intn(10); {
				case op < 5:
					a, aok := single.Get(url)
					b, bok := sharded.Get(url)
					if aok != bok || (aok && len(a.Body) != len(b.Body)) {
						t.Fatalf("op %d: Get(%q) diverged: %v/%v", i, url, aok, bok)
					}
				case op < 9:
					body := make([]byte, 64+r.Intn(512))
					obj := func() *Object { return &Object{Body: body, StoredAt: clock()} }
					if single.Put(url, obj()) != sharded.Put(url, obj()) {
						t.Fatalf("op %d: Put(%q) verdicts diverged", i, url)
					}
				default:
					single.Remove(url)
					sharded.Remove(url)
				}
			}

			if a, b := single.Stats(), sharded.Stats(); !reflect.DeepEqual(a, b) {
				t.Errorf("stats diverged:\n single: %+v\nsharded: %+v", a, b)
			}
			if single.Len() != sharded.Len() {
				t.Errorf("Len diverged: %d vs %d", single.Len(), sharded.Len())
			}
			if single.Stats().Evictions == 0 {
				t.Error("replay exercised no evictions — capacity too large for the test to mean anything")
			}
			for _, url := range urls {
				a, aok := single.Peek(url)
				b, bok := sharded.Peek(url)
				if aok != bok {
					t.Fatalf("Peek(%q) presence diverged: %v vs %v", url, aok, bok)
				}
				if aok && len(a.Body) != len(b.Body) {
					t.Fatalf("Peek(%q) sizes diverged: %d vs %d", url, len(a.Body), len(b.Body))
				}
			}
		})
	}
}

// nilVictimPolicy tracks membership but refuses to name eviction
// victims — the degenerate policy that exposes Put's replace-then-fail
// path.
type nilVictimPolicy struct{ n int }

func (p *nilVictimPolicy) Name() string               { return "NIL-VICTIM" }
func (p *nilVictimPolicy) Add(*policy.Entry)          { p.n++ }
func (p *nilVictimPolicy) Touch(*policy.Entry)        {}
func (p *nilVictimPolicy) Remove(*policy.Entry)       { p.n-- }
func (p *nilVictimPolicy) Victim(int64) *policy.Entry { return nil }
func (p *nilVictimPolicy) Len() int                   { return p.n }

// TestPutReplaceFailureKeepsOldObject is the regression test for the
// replace-then-fail object loss: replacing a cached object with a
// bigger version that cannot be admitted (no victim available) must
// leave the old object cached and the counters consistent, in both
// store implementations.
func TestPutReplaceFailureKeepsOldObject(t *testing.T) {
	impls := map[string]func() ObjectStore{
		"single-mutex": func() ObjectStore { return NewStore(100, &nilVictimPolicy{}) },
		"sharded": func() ObjectStore {
			return NewShardedStore(100, 1, func() policy.Policy { return &nilVictimPolicy{} })
		},
	}
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if !s.Put("http://h/a.html", &Object{Body: make([]byte, 60), StoredAt: time.Now()}) {
				t.Fatal("initial Put(a) rejected")
			}
			if !s.Put("http://h/b.html", &Object{Body: make([]byte, 30), StoredAt: time.Now()}) {
				t.Fatal("Put(b) rejected")
			}
			// Replacing a (60B) with an 80B version needs 110B total with
			// b resident; the policy names no victim, so the Put must fail
			// WITHOUT losing the old a.
			if s.Put("http://h/a.html", &Object{Body: make([]byte, 80), StoredAt: time.Now()}) {
				t.Fatal("oversized replacement admitted")
			}
			if err := checkStoreInvariants(s); err != nil {
				t.Fatalf("after failed replacement: %v", err)
			}
			obj, ok := s.Get("http://h/a.html")
			if !ok {
				t.Fatal("old object lost by failed replacement")
			}
			if len(obj.Body) != 60 {
				t.Fatalf("object body = %d bytes, want the original 60", len(obj.Body))
			}
			st := s.Stats()
			if st.Used != 90 || st.Docs != 2 || st.Evictions != 0 {
				t.Errorf("stats after failed replacement = %+v, want Used 90, Docs 2, Evictions 0", st)
			}
			if s.Len() != 2 {
				t.Errorf("Len = %d, want 2", s.Len())
			}
			// A replacement that fits must still go through atomically.
			if !s.Put("http://h/a.html", &Object{Body: make([]byte, 10), StoredAt: time.Now()}) {
				t.Fatal("fitting replacement rejected")
			}
			if obj, _ := s.Get("http://h/a.html"); len(obj.Body) != 10 {
				t.Errorf("replacement body = %d bytes, want 10", len(obj.Body))
			}
			if st := s.Stats(); st.Used != 40 || st.Docs != 2 {
				t.Errorf("stats after successful replacement = %+v, want Used 40, Docs 2", st)
			}
			if err := checkStoreInvariants(s); err != nil {
				t.Fatalf("after successful replacement: %v", err)
			}
		})
	}
}

// TestShardedHooksTagShard wires the per-shard observability hooks and
// checks that every ring event carries the shard that produced it, and
// that the merged counters see all shards.
func TestShardedHooksTagShard(t *testing.T) {
	const shards = 4
	reg := obs.NewRegistry()
	ring := obs.NewEventRing(1 << 10)
	s := NewShardedStore(1<<20, shards, nil)
	s.SetHooksPerShard(ShardedStoreHooks(reg, ring))

	const docs = 200
	for i := 0; i < docs; i++ {
		url := fmt.Sprintf("http://h/doc%d.html", i)
		s.Put(url, &Object{Body: make([]byte, 128), StoredAt: time.Now()})
		s.Get(url)
	}
	if got := reg.Counter("store.inserts").Load(); got != docs {
		t.Errorf("store.inserts = %d, want %d", got, docs)
	}
	if got := reg.Counter("store.hits").Load(); got != docs {
		t.Errorf("store.hits = %d, want %d", got, docs)
	}
	events := ring.Snapshot()
	if len(events) != 2*docs {
		t.Fatalf("ring holds %d events, want %d", len(events), 2*docs)
	}
	shardsSeen := map[int32]bool{}
	for _, ev := range events {
		if ev.Shard < 0 || int(ev.Shard) >= shards {
			t.Fatalf("event carries shard %d outside [0,%d)", ev.Shard, shards)
		}
		shardsSeen[ev.Shard] = true
	}
	if len(shardsSeen) != shards {
		t.Errorf("events reached %d shards, want all %d", len(shardsSeen), shards)
	}
}
