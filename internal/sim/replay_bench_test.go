package sim

import (
	"io"
	"testing"

	"webcache/internal/obs"
	"webcache/internal/policy"
)

// Full-replay microbenchmarks per policy family. Each reports
// ns/request alongside ns/op, and each family runs twice: as production
// runs it, and with the observability layer attached (Observer with its
// pprof label span and JSONL snapshot per replay, what websim's
// -metrics-out and -progress run), so
//
//	go test ./internal/sim -run '^$' -bench 'Replay$|ReplayObserved' -benchmem
//
// prices the enabled observability path per family. DESIGN.md's
// "Overhead contract" table holds the interleaved measurement.

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

func benchmarkReplayPolicy(b *testing.B, spec string, observed bool) {
	tr, base := benchExp2Workload(b)
	if observed {
		o := obs.New(obs.Options{Metrics: io.Discard})
		o.SetExperiment("2")
		Observer = o
		defer func() {
			if err := CloseObserver(nil); err != nil {
				b.Error(err)
			}
		}()
	}
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
		b.Run(f.name, func(b *testing.B) { benchmarkReplayPolicy(b, f.spec, false) })
	}
}

// BenchmarkReplayObserved is BenchmarkReplay with Observer attached.
func BenchmarkReplayObserved(b *testing.B) {
	for _, f := range replayFamilies {
		b.Run(f.name, func(b *testing.B) { benchmarkReplayPolicy(b, f.spec, true) })
	}
}
