package proxy

// The occupancy rebalancer closes the gap PR 6 documented: a sharded
// store partitions capacity into static per-shard quotas, so a shard
// that the URL hash happens to load heavily evicts constantly while an
// unpopular one sits half empty. The rebalancer runs off the serving
// path (the Maintainer ticks it) and shifts quota from cold shards to
// hot ones, where heat is eviction pressure — the number of evictions
// a shard performed since the previous pass. Occupancy alone is not a
// demand signal (a full shard that never evicts is in equilibrium);
// evictions are capacity misses by definition.
//
// Invariants, enforced structurally and unit-tested:
//
//   - The global sum of shard quotas equals the capacity the store was
//     built with, exactly, whenever no transfer is in flight: a taker
//     is credited precisely the bytes its donor debited. The debit
//     lands before the credit (never the other way round — a credit-
//     first order would let the summed quotas exceed capacity and admit
//     extra bytes). Stats() takes its snapshot between passes, so it
//     always reads the exact sum.
//   - A donor's quota never drops below its bytes in use, its largest
//     resident entry, or the configured floor. The donor re-checks
//     under its own lock at debit time (Store.donateQuota), so the
//     invariant survives racing admissions.
//   - A pass moves at most step bytes into any one shard — bounded
//     steps keep the quota field stable under noisy traffic instead of
//     sloshing capacity shard to shard.

import "sort"

// QuotaMove is one donor→taker transfer within a rebalance pass.
type QuotaMove struct {
	From  int   `json:"from"`
	To    int   `json:"to"`
	Bytes int64 `json:"bytes"`
}

// RebalanceResult reports one pass: the per-shard eviction pressure
// observed (evictions since the previous pass) and the quota moved.
type RebalanceResult struct {
	Pressure []int64     `json:"pressure"`
	Moves    []QuotaMove `json:"moves,omitempty"`
	Moved    int64       `json:"moved"`
}

// Rebalance runs one rebalancing pass: shards with eviction pressure
// since the last pass gain quota, pressure-free shards with slack
// donate it. step bounds the bytes moved into any single shard this
// pass; floor is the minimum quota a donor may be left with (use
// MinShardQuota for a sane default — a floor keeps a cold shard from
// being bled to zero, which would strand it: a shard with no quota
// admits nothing, so it can never build the eviction pressure that
// would win its quota back). Passes are serialized; concurrent calls
// queue.
func (s *ShardedStore) Rebalance(step, floor int64) RebalanceResult {
	s.rebalMu.Lock()
	defer s.rebalMu.Unlock()

	n := len(s.shards)
	res := RebalanceResult{Pressure: make([]int64, n)}
	if n < 2 || step <= 0 {
		return res
	}

	type view struct {
		i        int
		pressure int64
		slack    int64 // quota - used: donatable headroom, pre-check only
	}
	views := make([]view, n)
	for i, sh := range s.shards {
		st := sh.Stats()
		p := st.Evictions - s.lastEvictions[i]
		s.lastEvictions[i] = st.Evictions
		res.Pressure[i] = p
		views[i] = view{i: i, pressure: p, slack: st.Capacity - st.Used}
	}

	var hot, cold []view
	for _, v := range views {
		if v.pressure > 0 {
			hot = append(hot, v)
		} else if v.slack > 0 {
			cold = append(cold, v)
		}
	}
	if len(hot) == 0 || len(cold) == 0 {
		return res
	}
	// Hottest takers first, slackest donors first; index breaks ties so
	// a pass is deterministic for a given snapshot.
	sort.Slice(hot, func(a, b int) bool {
		if hot[a].pressure != hot[b].pressure {
			return hot[a].pressure > hot[b].pressure
		}
		return hot[a].i < hot[b].i
	})
	sort.Slice(cold, func(a, b int) bool {
		if cold[a].slack != cold[b].slack {
			return cold[a].slack > cold[b].slack
		}
		return cold[a].i < cold[b].i
	})

	for _, h := range hot {
		need := step
		for d := range cold {
			if need <= 0 {
				break
			}
			if cold[d].slack <= 0 {
				continue
			}
			// The donor re-validates its own floor under its lock; got
			// may be less than asked (or zero) if traffic filled it in
			// the meantime.
			got := s.shards[cold[d].i].donateQuota(need, floor)
			if got == 0 {
				cold[d].slack = 0
				continue
			}
			s.shards[h.i].grantQuota(got)
			cold[d].slack -= got
			need -= got
			res.Moved += got
			res.Moves = append(res.Moves, QuotaMove{From: cold[d].i, To: h.i, Bytes: got})
		}
	}
	return res
}

// MinShardQuota is the default donor floor for a store of the given
// global capacity and shard count: an eighth of the fair per-shard
// share. Low enough that a truly idle shard hands most of its capacity
// to the hot ones, high enough that it can still admit typical
// documents and re-enter the game when its URLs come back.
func MinShardQuota(capacity int64, shards int) int64 {
	if shards < 1 {
		shards = 1
	}
	q := capacity / int64(shards) / 8
	if q < 1 {
		q = 1
	}
	return q
}
