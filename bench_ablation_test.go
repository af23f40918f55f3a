package webcache

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// §1.3 removal-timing question (on-demand vs periodic sweep with a
// comfort level), the §5 extension keys, the post-paper GD-Size
// baseline, and raw cache-access throughput per policy.

import (
	"fmt"
	"testing"

	"webcache/internal/core"
	"webcache/internal/policy"
	"webcache/internal/sim"
	"webcache/internal/trace"
)

// BenchmarkAblationRemovalTiming compares pure on-demand removal with
// the Pitkow/Recker end-of-day periodic sweep at several comfort
// levels. The paper argues (§1.3) that periodic removal can only lower
// hit rates because documents leave earlier than required; the reported
// metrics quantify that.
func BenchmarkAblationRemovalTiming(b *testing.B) {
	cases := []struct {
		name  string
		sweep float64
	}{
		{"on-demand", 0},
		{"sweep-90", 0.90},
		{"sweep-75", 0.75},
		{"sweep-50", 0.50},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			tr, base := benchTrace(b, "U")
			capacity := base.MaxNeeded / 10
			var run *sim.PolicyRun
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pol := policy.NewPitkowRecker(tr.Start)
				run = sim.RunPolicy(tr, base, pol, capacity, 19, sim.RunOptions{Sweep: tc.sweep})
			}
			b.ReportMetric(100*run.Final.HitRate(), "HR%")
			b.ReportMetric(float64(run.Final.Evictions), "evictions")
		})
	}
}

// BenchmarkAblationExtensionKeys runs the paper's §5 open-problem keys
// (document type, refetch latency) and the post-paper GD-Size baselines
// next to SIZE on the BL workload.
func BenchmarkAblationExtensionKeys(b *testing.B) {
	latency := func(url string, size int64) float64 {
		// A simple 1995 cost model: per-server RTT plus 2 KB/s transfer.
		rtt := 0.05
		if len(url) > 9 && url[7] == 's' { // remote servers hash by name
			rtt = 0.05 + float64(len(url)%7)*0.08
		}
		return rtt + float64(size)/2048
	}
	for _, spec := range []string{"SIZE", "TYPE", "LATENCY", "TYPE/SIZE", "GD-Size(1)", "GD-Size(SIZE)"} {
		b.Run(spec, func(b *testing.B) {
			tr, base := benchTrace(b, "BL")
			capacity := base.MaxNeeded / 10
			var run *sim.PolicyRun
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pol, err := policy.Parse(spec, tr.Start)
				if err != nil {
					b.Fatal(err)
				}
				run = sim.RunPolicy(tr, base, pol, capacity, 23, sim.RunOptions{LatencyOf: latency})
			}
			b.ReportMetric(100*run.Final.HitRate(), "HR%")
			b.ReportMetric(100*run.Final.WeightedHitRate(), "WHR%")
		})
	}
}

// BenchmarkCacheAccessThroughput measures raw simulator throughput —
// accesses per second through a finite cache — for representative
// policies, the number that bounds full-scale experiment run time.
func BenchmarkCacheAccessThroughput(b *testing.B) {
	for _, spec := range []string{"SIZE", "LRU", "LRU-MIN", "Hyper-G", "GD-Size(1)"} {
		b.Run(spec, func(b *testing.B) {
			tr, base := benchTrace(b, "BL")
			pol, err := policy.Parse(spec, tr.Start)
			if err != nil {
				b.Fatal(err)
			}
			cache := core.New(core.Config{Capacity: base.MaxNeeded / 10, Policy: pol, Seed: 29})
			reqs := tr.Requests
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cache.Access(&reqs[i%len(reqs)])
			}
		})
	}
}

// BenchmarkValidate measures the §1.1 trace validation pass.
func BenchmarkValidate(b *testing.B) {
	tr, _ := benchTrace(b, "U")
	// Rebuild a raw-like trace by reusing the validated one; sizes and
	// statuses are already normalized, so this measures the pass itself.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats := trace.Validate(tr)
		if stats.Kept == 0 {
			b.Fatal("validation dropped everything")
		}
	}
}

// BenchmarkSharedL2 runs the §5 open-problem-3 study (Experiment 5): the
// BL client population split behind a shared vs private second level.
func BenchmarkSharedL2(b *testing.B) {
	for _, pops := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("populations-%d", pops), func(b *testing.B) {
			tr, base := benchTrace(b, "BL")
			var res *sim.Exp5Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = sim.Experiment5(tr, base, pops, 0.10, 31)
			}
			b.ReportMetric(100*res.SharingGainHR, "sharing-gain-HR%")
			b.ReportMetric(100*res.Shared.CrossHitFraction, "cross-pop-hits%")
		})
	}
}

// BenchmarkAblationExpiry compares plain SIZE removal against the
// Harvest-style expired-first wrapper (§5 open problem 4) under a
// synthetic TTL model (documents expire a day after entering).
func BenchmarkAblationExpiry(b *testing.B) {
	for _, wrapped := range []bool{false, true} {
		name := "SIZE"
		if wrapped {
			name = "ExpiredFirst(SIZE)"
		}
		b.Run(name, func(b *testing.B) {
			tr, base := benchTrace(b, "C")
			var final core.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var pol policy.Policy = policy.NewSorted([]policy.Key{policy.KeySize}, tr.Start)
				if wrapped {
					pol = policy.NewExpiredFirst(pol)
				}
				cache := core.New(core.Config{
					Capacity: base.MaxNeeded / 10,
					Policy:   pol,
					Seed:     37,
					ExpiresOf: func(url string, size, now int64) int64 {
						return now + 86400
					},
				})
				for j := range tr.Requests {
					cache.Access(&tr.Requests[j])
				}
				final = cache.Stats()
			}
			b.ReportMetric(100*final.HitRate(), "HR%")
			b.ReportMetric(100*final.WeightedHitRate(), "WHR%")
		})
	}
}

// BenchmarkExp6LatencySaved regenerates the Experiment 6 extension: the
// paper's third criterion (user-perceived latency) priced under a
// 1995-era network model.
func BenchmarkExp6LatencySaved(b *testing.B) {
	for _, spec := range []string{"SIZE", "LATENCY", "GD-Latency", "LRU"} {
		b.Run(spec, func(b *testing.B) {
			tr, base := benchTrace(b, "BL")
			var res *sim.Exp6Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sim.Experiment6(tr, base, []string{spec}, 0.10, nil, 41)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*res.Runs[0].SavedFraction, "latency-saved-%")
			b.ReportMetric(100*res.Runs[0].HR, "HR%")
		})
	}
}
