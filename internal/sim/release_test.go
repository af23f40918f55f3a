package sim

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"webcache/internal/policy"
	"webcache/internal/workload"
)

// The sweep-level reuse contract: RunPolicy releases its cache's entry
// slabs, free slice, ID table and policy arrays for the next run, that
// run allocates only what is not reused, a run on reused memory is
// deeply equal to one on fresh memory, and the free lists hold no more
// after a repeated sweep than after the first.

// emptyPools drops whatever earlier replays released, so the next
// replay allocates its buffers afresh.
func emptyPools() {
	policy.ResetFreeLists()
}

// TestRunPolicyReusesReleasedMemory pins the allocation win: a second
// RunPolicy with the same trace, combo and capacity allocates under a
// tenth of the first run's bytes, on an ATIME recency list, on SIZE
// buckets (64 heaps grown from empty) and on an NREF heap (reserved
// from the size hint). Only the daily series, the results and the
// policy itself are allocated afresh.
func TestRunPolicyReusesReleasedMemory(t *testing.T) {
	cfg := workload.BL(5)
	cfg.Scale = 0.1
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Experiment1(tr, 1)
	capacity := base.MaxNeeded / 2
	for _, primary := range []policy.Key{policy.KeyATime, policy.KeySize, policy.KeyNRef} {
		combo := policy.Combo{Primary: primary, Secondary: policy.KeyRandom}
		allocated := func() uint64 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			RunPolicy(tr, base, combo.New(tr.Start), capacity, 3, RunOptions{})
			runtime.ReadMemStats(&m1)
			return m1.TotalAlloc - m0.TotalAlloc
		}
		emptyPools()
		first := allocated()
		second := allocated()
		t.Logf("%v: first run %d bytes, second %d", combo, first, second)
		if second*10 >= first {
			t.Errorf("%v: second run allocated %d bytes, first %d: want under 10%%", combo, second, first)
		}
	}
}

// TestRunPolicyOnReleasedMemory runs combo B on fresh memory, then
// another policy on the memory B released, then B again on the memory
// that one released, and requires the two B runs to be deeply equal.
func TestRunPolicyOnReleasedMemory(t *testing.T) {
	tr := detTrace(t, "C", 7)
	base := Experiment1(tr, 1)
	capacity := base.MaxNeeded / 10
	b := policy.Combo{Primary: policy.KeySize, Secondary: policy.KeyATime}
	emptyPools()
	fresh := RunPolicy(tr, base, b.New(tr.Start), capacity, 3, RunOptions{})
	// LRU-MIN links its entries into lists, leaving fields a heap policy
	// never sets in the slabs it releases.
	RunPolicy(tr, base, policy.NewLRUMin(), capacity, 4, RunOptions{})
	reused := RunPolicy(tr, base, b.New(tr.Start), capacity, 3, RunOptions{})
	if !reflect.DeepEqual(fresh, reused) {
		t.Error("run on released memory differs from run on fresh memory")
	}
}

// TestFreeListsBounded checks that the free lists keep only what
// replays released: a second identical Experiment 2 over every combo
// finds all it needs on them and leaves no list longer than the first
// one did. The runner is sequential, so each run's demand, and the
// lists after it, do not depend on scheduling.
func TestFreeListsBounded(t *testing.T) {
	tr := detTrace(t, "BL", 3)
	base := Experiment1(tr, 1)
	r := NewRunner(RunnerConfig{Workers: 1})
	emptyPools()
	Experiment2R(r, tr, base, policy.AllCombos(), 0.1, 5)
	first := policy.FreeListLens()
	Experiment2R(r, tr, base, policy.AllCombos(), 0.1, 5)
	second := policy.FreeListLens()
	if slices.Equal(first, make([]int, len(first))) {
		t.Fatal("no buffer went back on a free list")
	}
	for i := range first {
		if second[i] > first[i] {
			t.Errorf("free list %d holds %d buffers after the second sweep, %d after the first", i, second[i], first[i])
		}
	}
}
