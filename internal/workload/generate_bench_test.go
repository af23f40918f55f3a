package workload

import (
	"runtime"
	"testing"
)

// BenchmarkGenerateWorkload times synthesis plus §1.1 validation of each
// paper workload at scale 0.1, per valid request.
func BenchmarkGenerateWorkload(b *testing.B) {
	for _, name := range Names {
		b.Run(name, func(b *testing.B) {
			cfg, err := ByName(name, 42)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Scale = 0.1
			b.ReportAllocs()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			kept := 0
			for i := 0; i < b.N; i++ {
				tr, _, err := GenerateValidated(cfg)
				if err != nil {
					b.Fatal(err)
				}
				kept += len(tr.Requests)
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(kept), "ns/request")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(kept), "allocs/request")
		})
	}
}

// TestGenerateAllocs pins synthesis plus validation at no more than one
// allocation per valid request: the URL string of each minted document,
// amortized growth of the catalogs, and nothing per re-reference.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	for _, name := range Names {
		cfg, err := ByName(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scale = 0.1
		kept := 0
		allocs := testing.AllocsPerRun(1, func() {
			tr, _, err := GenerateValidated(cfg)
			if err != nil {
				t.Fatal(err)
			}
			kept = len(tr.Requests)
		})
		if perReq := allocs / float64(kept); perReq > 1.0 {
			t.Errorf("workload %s: %.2f allocations per valid request (%.0f for %d), want at most 1.0",
				name, perReq, allocs, kept)
		}
	}
}
