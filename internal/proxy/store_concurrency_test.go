package proxy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"webcache/internal/policy"
)

// checkInvariants runs core.Cache's own check on the store's cache,
// then verifies that the body map holds exactly the resident documents,
// each body as long as its entry. It holds the read lock, so it may run
// beside live traffic.
func (s *Store) checkInvariants() (err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	s.c.CheckInvariants()
	if len(s.objects) != s.c.Len() {
		return fmt.Errorf("%d bodies, %d resident documents", len(s.objects), s.c.Len())
	}
	for url, obj := range s.objects {
		if !s.c.Contains(url, int64(len(obj.Body))) {
			return fmt.Errorf("body of %q (%d bytes) is not resident at that size", url, len(obj.Body))
		}
	}
	return nil
}

// checkStoreInvariants checks the store behind s.
func checkStoreInvariants(s ObjectStore) error { return s.(*Store).checkInvariants() }

// racePolicies are the backends the concurrency tests run each store
// over: SIZE (the default, on size buckets), LRU (an intrusive recency
// list) and LFU (the heap). A hit re-sorts its entry inline under the
// store's write lock, so these are the structures the race detector
// watches being mutated from many goroutines.
var racePolicies = []struct {
	name      string
	newPolicy func() policy.Policy
}{
	{"SIZE", func() policy.Policy { return nil }}, // NewStore defaults nil to SIZE
	{"LRU", func() policy.Policy { return policy.NewLRU() }},
	{"LFU", func() policy.Policy { return policy.NewLFU() }},
}

// raceImpls builds the store the concurrency tests in this file run
// against, behind the ObjectStore interface the serving path uses.
func raceImpls(capacity int64) map[string]func(newPolicy func() policy.Policy) ObjectStore {
	return map[string]func(func() policy.Policy) ObjectStore{
		"single-mutex": func(p func() policy.Policy) ObjectStore { return NewStore(capacity, p()) },
	}
}

// forEachRaceStore runs one subtest per store implementation; each runs
// body on a fresh store per policy backend, in turn. body reports
// failures prefixed with the policy name it is given.
func forEachRaceStore(t *testing.T, capacity int64, body func(t *testing.T, pol string, s ObjectStore)) {
	for name, mk := range raceImpls(capacity) {
		t.Run(name, func(t *testing.T) {
			for _, p := range racePolicies {
				body(t, p.name, mk(p.newPolicy))
			}
		})
	}
}

// TestStoreRaceStress hammers every store implementation from many
// goroutines with the full interface surface — Get, Put, Peek, Remove,
// Admits, Refresh, Stats, Len — checking the accounting invariants mid-run and at the
// end. Run with -race to verify the locking discipline (make race does).
func TestStoreRaceStress(t *testing.T) {
	forEachRaceStore(t, 64<<10, func(t *testing.T, pol string, s ObjectStore) {
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
						if i%64 == 6 {
							if err := checkStoreInvariants(s); err != nil {
								t.Errorf("%s, mid-run: %v", pol, err)
							}
						} else {
							s.Stats()
						}
					case 7:
						s.Len()
						s.Admits(int64(100 + (i % 700)))
						s.Refresh(url)
					}
				}
			}(w)
		}
		wg.Wait()

		if err := checkStoreInvariants(s); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		st := s.Stats()
		if st.Gets == 0 || st.Puts == 0 || st.Evictions == 0 {
			t.Fatalf("%s: stress run recorded too little traffic: %+v", pol, st)
		}
	})
}

// TestStoreConcurrentWithICP runs store mutations concurrently with ICP
// queries against the same store, for each implementation — the
// responder reads through the interface's Peek path.
func TestStoreConcurrentWithICP(t *testing.T) {
	forEachRaceStore(t, 1<<20, func(t *testing.T, pol string, s ObjectStore) {
		resp, err := NewICPResponder(s, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		defer resp.Close()

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				url := fmt.Sprintf("http://s/d%d.html", i%50)
				s.Put(url, &Object{Body: make([]byte, 64), StoredAt: time.Now()})
				s.Get(url)
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

		if err := checkStoreInvariants(s); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	})
}

// TestShardedConcurrentReplacement stresses the atomic-replacement path
// concurrently: many goroutines re-Put the same small URL population
// with varying sizes while others read, so replacements and evictions
// interleave. A failed or successful replacement must never leak bytes.
func TestShardedConcurrentReplacement(t *testing.T) {
	forEachRaceStore(t, 16<<10, func(t *testing.T, pol string, s ObjectStore) {
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

		if err := checkStoreInvariants(s); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
	})
}
