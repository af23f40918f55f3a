package trace_test

import (
	"runtime"
	"testing"

	"webcache/internal/trace"
	"webcache/internal/workload"
)

// BenchmarkBuildColumnar times building the columnar view of each
// synthesized workload at sim-sweep's scale (0.5, seed 42) and reports
// the heap the finished view keeps alive after a GC, per request: the
// view's own columns and tables, not the trace's URL strings it shares.
func BenchmarkBuildColumnar(b *testing.B) {
	for _, name := range workload.Names {
		b.Run(name, func(b *testing.B) {
			cfg, err := workload.ByName(name, 42)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Scale = 0.5
			tr, _, err := workload.GenerateValidated(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trace.BuildColumnar(tr)
			}
			b.StopTimer()

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			col := trace.BuildColumnar(tr)
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(col)
			runtime.KeepAlive(tr)
			retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			b.ReportMetric(float64(retained)/float64(col.Len()), "retained-B/request")
		})
	}
}
