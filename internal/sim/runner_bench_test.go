package sim

import (
	"runtime"
	"sync"
	"testing"

	"webcache/internal/policy"
	"webcache/internal/trace"
	"webcache/internal/workload"
)

// The sequential/parallel benchmark pair quantifies the runner's
// speedup on the full 36-policy design of Experiment 2 — the sweep the
// report tool spends most of its time in. On an N-core machine the
// parallel variant should approach N× the sequential throughput, since
// the 36 replays are independent and CPU-bound.

var (
	benchWorkloadOnce sync.Once
	benchWorkloadTr   *trace.Trace
	benchWorkloadBase *Exp1Result
	benchWorkloadErr  error
)

// benchExp2Workload returns the benchmark workload and its Experiment 1
// baseline, generated once and shared across every benchmark in the
// package so the generation cost never leaks into a timed region.
func benchExp2Workload(b *testing.B) (*trace.Trace, *Exp1Result) {
	b.Helper()
	benchWorkloadOnce.Do(func() {
		cfg := workload.BL(3)
		cfg.Scale = 0.05
		tr, _, err := workload.GenerateValidated(cfg)
		if err != nil {
			benchWorkloadErr = err
			return
		}
		tr.Columnar()
		benchWorkloadTr = tr
		benchWorkloadBase = Experiment1(tr, 1)
	})
	if benchWorkloadErr != nil {
		b.Fatal(benchWorkloadErr)
	}
	return benchWorkloadTr, benchWorkloadBase
}

func benchmarkExperiment2(b *testing.B, workers int) {
	tr, base := benchExp2Workload(b)
	combos := policy.AllCombos()
	r := NewRunner(RunnerConfig{Workers: workers})
	var bytes int64
	for i := range tr.Requests {
		bytes += tr.Requests[i].Size
	}
	b.SetBytes(bytes * int64(len(combos)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Experiment2R(r, tr, base, combos, 0.10, 2)
		if len(res.Runs) != len(combos) {
			b.Fatalf("%d runs", len(res.Runs))
		}
	}
	b.StopTimer()
	st := r.Stats()
	b.ReportMetric(st.Speedup(), "speedup")
}

// BenchmarkExperiment2Sequential is the pre-runner baseline: the same
// 36 replays on a single worker.
func BenchmarkExperiment2Sequential(b *testing.B) {
	benchmarkExperiment2(b, 1)
}

// BenchmarkExperiment2Parallel fans the 36 replays across GOMAXPROCS
// workers.
func BenchmarkExperiment2Parallel(b *testing.B) {
	benchmarkExperiment2(b, runtime.GOMAXPROCS(0))
}
