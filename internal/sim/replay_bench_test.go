package sim

import (
	"testing"

	"webcache/internal/core"
	"webcache/internal/policy"
	"webcache/internal/pqueue"
)

// Full-replay microbenchmarks per policy family. Each reports
// ns/request alongside ns/op, and each family runs in three modes: the
// optimized engine, the pre-optimization engine reconstructed through
// the ablation switches, and the optimized engine with every order on
// the generic heap (policy.DisableStructural), so
//
//	go test ./internal/sim -bench Replay -benchmem
//
// shows the compiled layer's contribution per family and what each
// policy backend saves over the heap. The 36-policy aggregate number
// lives in BENCH_replay.json (make bench-baseline).

// replayFamilies samples one representative policy per structural
// family — a single-key and a two-key SIZE order (size buckets), LRU
// (recency list), LOG2SIZE/ATIME (size buckets re-sifted on touch),
// DAY(ATIME)/SIZE, NREF/ETIME and Hyper-G (heap) — plus the scan-based
// LRU-MIN, Pitkow/Recker, and the float-priority GreedyDual-Size.
var replayFamilies = []struct {
	name string
	spec string
}{
	{"Size", "SIZE"},
	{"SizeATime", "SIZE/ATIME"},
	{"LRU", "LRU"},
	{"Log2SizeATime", "LOG2SIZE/ATIME"},
	{"DayATimeSize", "DAY(ATIME)/SIZE"},
	{"NRefETime", "NREF/ETIME"},
	{"PitkowRecker", "Pitkow-Recker"},
	{"LRUMin", "LRU-MIN"},
	{"HyperG", "Hyper-G"},
	{"GDSize", "GD-Size(1)"},
}

func benchmarkReplayPolicy(b *testing.B, spec string, legacy, heapOnly bool) {
	tr, base := benchExp2Workload(b)
	policy.DisableCompiled = legacy
	core.DisableAllocOpts = legacy
	DisableDayIndex = legacy
	pqueue.DisableHoleSift = legacy
	DisableInterning = legacy
	policy.DisableStructural = heapOnly
	defer func() {
		policy.DisableCompiled = false
		core.DisableAllocOpts = false
		DisableDayIndex = false
		pqueue.DisableHoleSift = false
		DisableInterning = false
		policy.DisableStructural = false
	}()
	capacity := base.MaxNeeded / 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := policy.Parse(spec, tr.Start)
		if err != nil {
			b.Fatal(err)
		}
		run := RunPolicy(tr, base, pol, capacity, 3, RunOptions{})
		if run.Final.Requests == 0 {
			b.Fatal("empty replay")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr.Requests)), "ns/request")
}

func BenchmarkReplay(b *testing.B) {
	for _, f := range replayFamilies {
		b.Run(f.name, func(b *testing.B) { benchmarkReplayPolicy(b, f.spec, false, false) })
	}
}

func BenchmarkReplayGeneric(b *testing.B) {
	for _, f := range replayFamilies {
		b.Run(f.name, func(b *testing.B) { benchmarkReplayPolicy(b, f.spec, true, false) })
	}
}

// BenchmarkReplayHeap is BenchmarkReplay with every order on the heap;
// families the heap already runs time the same in both.
func BenchmarkReplayHeap(b *testing.B) {
	for _, f := range replayFamilies {
		b.Run(f.name, func(b *testing.B) { benchmarkReplayPolicy(b, f.spec, false, true) })
	}
}
