package proxy

// The single-mutex Store serializes every Get and Put — fine for a
// trace replay, fatal at "millions of users": on a many-core proxy the
// global lock is the whole hot path. ShardedStore removes the global
// serialization point by hashing each URL to one of N independent
// shards, each a complete single-mutex Store with its own policy
// instance, entry/object maps, lock, tiebreak stream, and capacity
// quota. Requests for different shards never share a lock, so hit
// throughput can scale with cores until the memory system saturates.
//
// Sharding trades two global properties for that parallelism, both
// documented rather than hidden. Together they cost the deployed
// proxy a sixth of its hit rate, which is why cmd/proxy and livebench
// serve from one Store (DESIGN.md §10):
//
//   - Capacity is partitioned, not pooled. Each shard enforces its own
//     quota (see the remainder rule at NewShardedStore), so a popular
//     shard evicts while an unpopular one has slack. With URL hashing
//     and N « distinct documents the imbalance is small, and the
//     paper's HR/WHR answers are unchanged in expectation — but an
//     object larger than one shard's quota is uncacheable even if the
//     summed capacity would hold it, so pick N with quota ≫ the
//     largest cacheable object (cmd/proxy's MaxObjectBytes).
//   - Policy state is per shard. Each shard's removal policy ranks
//     only its own residents, so a victim is the best candidate within
//     the incoming URL's shard, not globally. This is the standard
//     sharded-LRU approximation (memcached, Squid), but it is the
//     paper's partitioned cache (Experiment 4): SIZE evicts the
//     largest document of one shard, not of the whole cache.
//
// With one shard both properties collapse back to the single store's:
// a 1-shard ShardedStore is byte-equivalent to Store under a fixed
// seed and clock (pinned by TestShardedOneShardByteEquivalent).

import (
	"time"

	"webcache/internal/core"
	"webcache/internal/policy"
)

// ShardedStore is an N-way sharded ObjectStore: URL-hash routing over
// independent single-mutex shards.
type ShardedStore struct {
	shards []*Store
}

// shardSeedStep derives shard i's tiebreak seed as base + i*step — the
// splitmix64 increment, so adjacent shard streams are uncorrelated.
// Shard 0's seed is the base itself, which is what makes the 1-shard
// store replay byte-identically to a Store given the same SetSeed.
const shardSeedStep = 0x9e3779b97f4a7c15

// NewShardedStore returns a store of the given total byte capacity
// split across shards. Each shard gets its own policy instance from
// newPolicy (nil defaults every shard to SIZE, matching NewStore).
//
// Quota remainder rule: every shard gets capacity/shards bytes, and
// the first capacity%shards shards get one extra byte each, so the
// quotas always sum to exactly the requested capacity.
func NewShardedStore(capacity int64, shards int, newPolicy func() policy.Policy) *ShardedStore {
	if shards < 1 {
		shards = 1
	}
	if newPolicy == nil {
		newPolicy = func() policy.Policy { return nil } // NewStore defaults nil to SIZE
	}
	s := &ShardedStore{shards: make([]*Store, shards)}
	quota := capacity / int64(shards)
	remainder := capacity % int64(shards)
	for i := range s.shards {
		q := quota
		if int64(i) < remainder {
			q++
		}
		s.shards[i] = NewStore(q, newPolicy())
	}
	return s
}

// shardIndex routes url with FNV-1a 64 — chosen over maphash because it
// is seedless and therefore stable across processes: a replayed trace
// lands on the same shards every run, which keeps sharded replays
// reproducible.
func shardIndex(url string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(url); i++ {
		h ^= uint64(url[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

func (s *ShardedStore) shard(url string) *Store {
	return s.shards[shardIndex(url, len(s.shards))]
}

// NumShards returns the shard count.
func (s *ShardedStore) NumShards() int { return len(s.shards) }

// Get returns the cached object for url from its shard.
func (s *ShardedStore) Get(url string) (*Object, bool) { return s.shard(url).Get(url) }

// Peek reports whether url is cached, without policy side effects.
func (s *ShardedStore) Peek(url string) (*Object, bool) { return s.shard(url).Peek(url) }

// Put stores obj under url in its shard, evicting within that shard's
// quota as needed.
func (s *ShardedStore) Put(url string, obj *Object) bool { return s.shard(url).Put(url, obj) }

// Admits reports whether url's shard has the quota for size bytes.
func (s *ShardedStore) Admits(url string, size int64) bool { return s.shard(url).Admits(url, size) }

// Refresh re-stamps url's stored-at time after a revalidation.
func (s *ShardedStore) Refresh(url string) { s.shard(url).Refresh(url) }

// Remove drops url from its shard.
func (s *ShardedStore) Remove(url string) { s.shard(url).Remove(url) }

// Len returns the number of cached objects across all shards.
func (s *ShardedStore) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Stats aggregates counters across shards. MaxUsed is the sum of
// per-shard high-water marks, an upper bound on the true global peak
// (shards peak at different times); Capacity sums to the capacity the
// store was built with.
func (s *ShardedStore) Stats() StoreStats {
	var agg StoreStats
	for _, sh := range s.shards {
		st := sh.Stats()
		agg.Gets += st.Gets
		agg.Hits += st.Hits
		agg.Puts += st.Puts
		agg.Evictions += st.Evictions
		agg.Used += st.Used
		agg.MaxUsed += st.MaxUsed
		agg.Docs += st.Docs
		agg.Capacity += st.Capacity
	}
	return agg
}

// ShardStats returns each shard's own counter snapshot, in shard
// order — the admin surface's view of load balance across shards.
func (s *ShardedStore) ShardStats() []StoreStats {
	out := make([]StoreStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}

// Reserve spreads an expected-documents hint evenly across the shards;
// each pre-sizes its maps and policy structures (see Store.Reserve).
func (s *ShardedStore) Reserve(docs int) {
	if docs <= 0 {
		return
	}
	per := (docs + len(s.shards) - 1) / len(s.shards)
	for _, sh := range s.shards {
		sh.Reserve(per)
	}
}

// SetClock overrides the time source of every shard.
func (s *ShardedStore) SetClock(now func() time.Time) {
	for _, sh := range s.shards {
		sh.SetClock(now)
	}
}

// SetSeed gives shard i the tiebreak seed seed + i*shardSeedStep (see
// shardSeedStep); shard 0 receives seed itself. Call before any Put.
func (s *ShardedStore) SetSeed(seed uint64) {
	for i, sh := range s.shards {
		sh.SetSeed(seed + uint64(i)*shardSeedStep)
	}
}

// SetHooks attaches the same event hooks to every shard: all shards'
// events land in one sink, which must be concurrency-safe (obs.EventRing
// and obs counters are).
func (s *ShardedStore) SetHooks(h core.CacheHooks) {
	for _, sh := range s.shards {
		sh.SetHooks(h)
	}
}
