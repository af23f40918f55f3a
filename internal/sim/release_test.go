package sim

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"webcache/internal/policy"
	"webcache/internal/workload"
)

// The sweep-level reuse contract: RunPolicy releases its cache's entry
// slabs and ID table for the next run, that run allocates only what is
// not reused, and a run on reused memory is deeply equal to one on
// fresh memory.

// emptyPools drops whatever earlier replays released: a sync.Pool keeps
// an item through at most two collections.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// TestRunPolicyReusesReleasedMemory pins the allocation win: a second
// RunPolicy with the same trace, combo and capacity allocates under a
// tenth of the first run's bytes. Only entries and the ID table are
// reused; the policy's own arrays and the daily series are allocated
// afresh, so the test uses an ATIME heap, which the size hint reserves
// in one step, on a trace large enough for entries to dominate
// (measured: 5 %).
func TestRunPolicyReusesReleasedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a share of its Puts")
	}
	// No collection may run between the two replays: two would empty
	// the pools the second one draws from.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := workload.BL(5)
	cfg.Scale = 0.1
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Experiment1(tr, 1)
	combo := policy.Combo{Primary: policy.KeyATime, Secondary: policy.KeyRandom}
	capacity := base.MaxNeeded / 2
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
	if second*10 >= first {
		t.Errorf("second run allocated %d bytes, first %d: want under 10%%", second, first)
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
