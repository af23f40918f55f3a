package proxy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"webcache/internal/policy"
)

// raceImpls builds one store of each implementation behind the shared
// ObjectStore interface, so every concurrency test in this file runs
// against both the single-mutex Store and the ShardedStore (including
// the 1-shard edge case, whose routing and quota paths are live even
// though only one lock exists).
func raceImpls(capacity int64) map[string]func() ObjectStore {
	factory := func() policy.Policy {
		return policy.NewSorted([]policy.Key{policy.KeySize}, 0)
	}
	buffered := func(s ObjectStore) ObjectStore {
		s.SetTouchBuffer(128) // small ring: the drop path is exercised, not just the happy path
		return s
	}
	return map[string]func() ObjectStore{
		"single-mutex":       func() ObjectStore { return NewStore(capacity, factory()) },
		"sharded-1":          func() ObjectStore { return NewShardedStore(capacity, 1, factory) },
		"sharded-8":          func() ObjectStore { return NewShardedStore(capacity, 8, factory) },
		"single-buffered":    func() ObjectStore { return buffered(NewStore(capacity, factory())) },
		"sharded-8-buffered": func() ObjectStore { return buffered(NewShardedStore(capacity, 8, factory)) },
	}
}

// TestStoreRaceStress hammers every store implementation from many
// goroutines with the full interface surface — Get, Put, Peek, Remove,
// Stats, Len — and then checks the accounting invariants. Run with
// -race to verify the locking discipline (make race does).
func TestStoreRaceStress(t *testing.T) {
	const capacity = 64 << 10
	for name, mk := range raceImpls(capacity) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			var wg sync.WaitGroup
			const workers = 8
			const opsPerWorker = 2000
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < opsPerWorker; i++ {
						url := fmt.Sprintf("http://s/doc%d.html", (w*31+i)%200)
						switch i % 8 {
						case 0, 4:
							s.Put(url, &Object{Body: make([]byte, 100+(i%700)), StoredAt: time.Now()})
						case 1, 5:
							s.Get(url)
						case 2:
							s.Peek(url)
						case 3:
							if i%16 == 3 {
								s.Remove(url)
							} else {
								s.Get(url)
							}
						case 6:
							if st := s.Stats(); st.Used < 0 {
								panic("negative Used observed mid-run")
							}
						case 7:
							s.Len()
							s.Refresh(url)
						}
					}
				}(w)
			}
			wg.Wait()

			st := s.Stats()
			if st.Used < 0 || st.Used > capacity {
				t.Fatalf("used bytes out of range: %d", st.Used)
			}
			if int64(s.Len()) != st.Docs {
				t.Fatalf("Len %d != Docs %d", s.Len(), st.Docs)
			}
			if st.Gets == 0 || st.Puts == 0 {
				t.Fatalf("stress run recorded no traffic: %+v", st)
			}
		})
	}
}

// TestStoreConcurrentWithICP runs store mutations concurrently with ICP
// queries against the same store, for each implementation — the
// responder reads through the interface's Peek path.
func TestStoreConcurrentWithICP(t *testing.T) {
	for name, mk := range raceImpls(1 << 20) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			resp, err := NewICPResponder(s, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Close()

			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					s.Put(fmt.Sprintf("http://s/d%d.html", i%50), &Object{Body: make([]byte, 64), StoredAt: time.Now()})
				}
			}()
			go func() {
				defer wg.Done()
				c := &ICPClient{Timeout: 100 * time.Millisecond}
				sib := []Sibling{{ICPAddr: resp.Addr(), Proxy: "x"}}
				for i := 0; i < 100; i++ {
					c.QuerySiblings(sib, fmt.Sprintf("http://s/d%d.html", i%50))
				}
			}()
			wg.Wait()
		})
	}
}

// TestShardedConcurrentReplacement stresses the atomic-replacement path
// concurrently: many goroutines re-Put the same small URL population
// with varying sizes while others read, so replacements and evictions
// interleave. The invariant from the Put fix — a failed or successful
// replacement never leaks bytes — shows up as Used staying within
// capacity and matching the live document set.
func TestShardedConcurrentReplacement(t *testing.T) {
	const capacity = 16 << 10
	for name, mk := range raceImpls(capacity) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 1500; i++ {
						url := fmt.Sprintf("http://s/hot%d.html", i%16)
						if w%2 == 0 {
							s.Put(url, &Object{Body: make([]byte, 200+(w*131+i)%1800), StoredAt: time.Now()})
						} else {
							s.Get(url)
						}
					}
				}(w)
			}
			wg.Wait()

			st := s.Stats()
			if st.Used < 0 || st.Used > capacity {
				t.Fatalf("used bytes out of range after replacement stress: %d", st.Used)
			}
			if int64(s.Len()) != st.Docs {
				t.Fatalf("Len %d != Docs %d", s.Len(), st.Docs)
			}
		})
	}
}

// TestBufferedMaintenanceRaceStress runs the whole buffered machinery
// at once under the race detector: a sharded store with per-shard touch
// rings, worker goroutines on the full interface surface, a Maintainer
// draining and rebalancing on aggressive ticks, plus explicit
// concurrent FlushTouches and Rebalance callers. The invariants checked
// are the ones the design promises survive concurrency: the global
// quota sum is exact at every observation, every recorded touch is
// accounted exactly once (drained, dropped, or stale), and usage stays
// within each shard's moving quota.
func TestBufferedMaintenanceRaceStress(t *testing.T) {
	// One run per policy backend: the default SIZE (static log2-size
	// buckets), LRU (intrusive recency list), and LFU (the heap) — the
	// structures the drain-time ReplayTouches mutates under each shard's
	// write lock, so this is where the race detector watches them live
	// under the Maintainer.
	for name, factory := range map[string]func() policy.Policy{
		"size": nil,
		"lru":  func() policy.Policy { return policy.NewLRU() },
		"lfu":  func() policy.Policy { return policy.NewLFU() },
	} {
		t.Run(name, func(t *testing.T) { bufferedMaintenanceRaceStress(t, factory) })
	}
}

func bufferedMaintenanceRaceStress(t *testing.T, factory func() policy.Policy) {
	const capacity = 64 << 10
	const shards = 8
	s := NewShardedStore(capacity, shards, factory)
	s.SetTouchBuffer(64)
	floor := MinShardQuota(capacity, shards)
	m := StartMaintenance(s, MaintOptions{
		DrainEvery:     time.Millisecond,
		RebalanceEvery: 2 * time.Millisecond,
		RebalanceStep:  1024,
		RebalanceFloor: floor,
	})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				url := fmt.Sprintf("http://s/doc%d.html", (w*17+i)%120)
				switch i % 8 {
				case 0:
					s.Put(url, &Object{Body: make([]byte, 200+(i%1800)), StoredAt: time.Now()})
				case 7:
					if i%32 == 7 {
						s.Remove(url)
					} else {
						s.FlushTouches()
					}
				default:
					s.Get(url)
				}
				if i%500 == 0 {
					// Stats snapshots between rebalance passes, so the sum
					// is exact even with transfers racing the reader.
					if got := s.Stats().Capacity; got != capacity {
						panic(fmt.Sprintf("quota sum %d != capacity %d mid-run", got, capacity))
					}
				}
			}
		}(w)
	}
	// A competing rebalancer: passes must serialize, not corrupt.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s.Rebalance(512, floor)
		}
	}()
	wg.Wait()
	m.Close()

	st := s.Stats()
	if st.Capacity != capacity {
		t.Fatalf("quota sum %d != capacity %d after run", st.Capacity, capacity)
	}
	if st.Used < 0 || st.Used > capacity {
		t.Fatalf("used bytes out of range: %d", st.Used)
	}
	if int64(s.Len()) != st.Docs {
		t.Fatalf("Len %d != Docs %d", s.Len(), st.Docs)
	}
	for i, sh := range s.shards {
		shst := sh.Stats()
		if shst.Used > shst.Capacity {
			t.Errorf("shard %d used %d exceeds its quota %d", i, shst.Used, shst.Capacity)
		}
	}
	// Close flushed the rings, so every hit is accounted at most once:
	// drained, dropped, or stale. A touch published after a drain already
	// passed its ticket can be stranded in its slot (the documented
	// missed-window case), so the accounting may fall short of Hits — but
	// never by more than one record per slot, and never over.
	applied := st.TouchDrained + st.TouchDropped + st.TouchStale
	if applied > st.Hits {
		t.Errorf("touch accounting overcounts: drained %d + dropped %d + stale %d = %d > Hits %d",
			st.TouchDrained, st.TouchDropped, st.TouchStale, applied, st.Hits)
	}
	if slack := st.Hits - applied; slack > int64(shards*64) {
		t.Errorf("touch accounting lost %d hits, more than one per ring slot (%d)", slack, shards*64)
	}
}
