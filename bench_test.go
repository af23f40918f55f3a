package webcache

// One benchmark per table and figure of the paper's evaluation (see the
// per-experiment index in DESIGN.md). Each benchmark regenerates its
// table or figure at a reduced workload scale and reports the headline
// quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's results alongside the usual ns/op. Full-scale
// reproductions (the numbers recorded in EXPERIMENTS.md) run through
// cmd/websim with -scale 1.0.

import (
	"fmt"
	"sync"
	"testing"

	"webcache/internal/policy"
	"webcache/internal/sim"
	"webcache/internal/stats"
	"webcache/internal/trace"
	"webcache/internal/workload"
)

// benchScale keeps every benchmark laptop-fast while preserving each
// workload's per-request statistics.
const benchScale = 0.10

var (
	benchTraces   = map[string]*trace.Trace{}
	benchBases    = map[string]*sim.Exp1Result{}
	benchTracesMu sync.Mutex
)

// benchTrace returns (and caches) a validated workload trace and its
// Experiment 1 baseline at benchScale.
func benchTrace(b *testing.B, name string) (*trace.Trace, *sim.Exp1Result) {
	b.Helper()
	benchTracesMu.Lock()
	defer benchTracesMu.Unlock()
	if tr, ok := benchTraces[name]; ok {
		return tr, benchBases[name]
	}
	cfg, err := workload.ByName(name, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Scale = benchScale
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		b.Fatal(err)
	}
	base := sim.Experiment1(tr, 7)
	benchTraces[name] = tr
	benchBases[name] = base
	return tr, base
}

// BenchmarkTable1Keys measures a sorted policy over three Table 1
// keys, Hyper-G's (NREF, ATIME, SIZE) triple, the most a removal key
// holds: each iteration touches one of two entries, which repacks its
// key and re-sorts it against the other — the inner step of every
// sorted policy's hit.
func BenchmarkTable1Keys(b *testing.B) {
	p := policy.NewSorted([]policy.Key{policy.KeyNRef, policy.KeyATime, policy.KeySize}, 0)
	x := policy.NewEntry("http://s/x.gif", 1234, trace.Graphics, 100, 1)
	y := policy.NewEntry("http://s/y.gif", 1234, trace.Graphics, 100, 2)
	p.Add(x)
	p.Add(y)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := x
		if i%2 == 1 {
			e = y
		}
		e.ATime++
		e.NRef++
		p.Touch(e)
	}
	if p.Victim(0) == nil {
		b.Fatal("no victim")
	}
}

// BenchmarkTable2Example replays the paper's worked example (Table 2)
// across the five key combinations it tabulates.
func BenchmarkTable2Example(b *testing.B) {
	combos := [][]policy.Key{
		{policy.KeySize, policy.KeyATime},
		{policy.KeyLog2Size, policy.KeyATime},
		{policy.KeyETime},
		{policy.KeyATime},
		{policy.KeyNRef, policy.KeyETime},
	}
	docs := map[string]int64{"A": 1946, "B": 1229, "C": 9216, "D": 15360, "E": 8192, "F": 307, "G": 1946, "H": 5325}
	seq := []struct {
		t int64
		u string
	}{{1, "A"}, {2, "B"}, {3, "C"}, {4, "B"}, {5, "B"}, {6, "A"}, {7, "D"}, {8, "E"}, {9, "C"}, {10, "D"}, {11, "F"}, {12, "G"}, {13, "A"}, {14, "D"}, {15, "H"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, keys := range combos {
			p := policy.NewSorted(keys, 0)
			entries := map[string]*policy.Entry{}
			for _, s := range seq {
				if e, ok := entries[s.u]; ok {
					e.ATime = s.t
					e.NRef++
					p.Touch(e)
					continue
				}
				e := policy.NewEntry(s.u, docs[s.u], trace.Unknown, s.t, uint64(len(entries)+1))
				entries[s.u] = e
				p.Add(e)
			}
			if v := p.Victim(1536); v == nil {
				b.Fatal("no victim")
			}
		}
	}
}

// BenchmarkTable3Policies measures victim selection across the
// literature policies of Table 3 on a populated cache.
func BenchmarkTable3Policies(b *testing.B) {
	mk := map[string]func() policy.Policy{
		"FIFO":          func() policy.Policy { return policy.NewFIFO() },
		"LRU":           func() policy.Policy { return policy.NewLRU() },
		"LFU":           func() policy.Policy { return policy.NewLFU() },
		"LRU-MIN":       func() policy.Policy { return policy.NewLRUMin() },
		"Hyper-G":       func() policy.Policy { return policy.NewHyperG() },
		"Pitkow-Recker": func() policy.Policy { return policy.NewPitkowRecker(0) },
	}
	for name, f := range mk {
		b.Run(name, func(b *testing.B) {
			p := f()
			for i := 0; i < 10000; i++ {
				p.Add(policy.NewEntry(fmt.Sprintf("u%d", i), int64(1+i%50000), trace.Text, int64(i), uint64(i)*2654435761))
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := p.Victim(4096)
				if v == nil {
					b.Fatal("no victim")
				}
				p.Remove(v)
				p.Add(v)
			}
		})
	}
}

// BenchmarkTable4FileTypes regenerates the Table 4 file-type mix for
// each workload and reports the dominant shares.
func BenchmarkTable4FileTypes(b *testing.B) {
	for _, name := range workload.Names {
		b.Run(name, func(b *testing.B) {
			tr, _ := benchTrace(b, name)
			var graphicsRefs, audioBytes, totalBytes float64
			for i := 0; i < b.N; i++ {
				var reqs [trace.NumDocTypes]int64
				var bytes [trace.NumDocTypes]int64
				var tb int64
				for j := range tr.Requests {
					r := &tr.Requests[j]
					reqs[r.Type]++
					bytes[r.Type] += r.Size
					tb += r.Size
				}
				graphicsRefs = float64(reqs[trace.Graphics]) / float64(len(tr.Requests))
				audioBytes = float64(bytes[trace.Audio]) / float64(tb)
				totalBytes = float64(tb)
			}
			b.ReportMetric(100*graphicsRefs, "graphics-refs-%")
			b.ReportMetric(100*audioBytes, "audio-bytes-%")
			b.ReportMetric(totalBytes/1e6, "MB-transferred")
		})
	}
}

// BenchmarkFig1ServerZipf regenerates the Fig. 1 rank-frequency view of
// requests per server on BL and reports the fitted Zipf exponent.
func BenchmarkFig1ServerZipf(b *testing.B) {
	tr, _ := benchTrace(b, "BL")
	var fit stats.ZipfFit
	for i := 0; i < b.N; i++ {
		counts := map[string]int64{}
		for j := range tr.Requests {
			counts[hostOfURL(tr.Requests[j].URL)]++
		}
		fit = stats.FitZipf(stats.RankFrequency(counts))
	}
	b.ReportMetric(fit.Slope, "zipf-exponent")
	b.ReportMetric(float64(fit.N), "servers")
	b.ReportMetric(fit.R2, "r2")
}

// BenchmarkFig2URLBytes regenerates Fig. 2: bytes transferred per URL,
// rank ordered, reporting how few URLs cover half the bytes.
func BenchmarkFig2URLBytes(b *testing.B) {
	tr, _ := benchTrace(b, "BL")
	var urlsForHalf, totalURLs int
	for i := 0; i < b.N; i++ {
		counts := map[string]int64{}
		var total int64
		for j := range tr.Requests {
			counts[tr.Requests[j].URL] += tr.Requests[j].Size
			total += tr.Requests[j].Size
		}
		rf := stats.RankFrequency(counts)
		var cum int64
		urlsForHalf = len(rf)
		for k, p := range rf {
			cum += p.Count
			if cum >= total/2 {
				urlsForHalf = k + 1
				break
			}
		}
		totalURLs = len(rf)
	}
	b.ReportMetric(float64(urlsForHalf), "urls-for-50%-bytes")
	b.ReportMetric(float64(totalURLs), "unique-urls")
}

// BenchmarkFig3to7InfiniteCache regenerates Experiment 1 (Figs. 3-7 and
// the §4.1 MaxNeeded numbers) for all five workloads.
func BenchmarkFig3to7InfiniteCache(b *testing.B) {
	for _, name := range workload.Names {
		b.Run(name, func(b *testing.B) {
			tr, _ := benchTrace(b, name)
			var res *sim.Exp1Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = sim.Experiment1(tr, 7)
			}
			b.ReportMetric(100*res.MeanHR, "maxHR%")
			b.ReportMetric(100*res.MeanWHR, "maxWHR%")
			b.ReportMetric(float64(res.MaxNeeded)/1e6, "MaxNeeded-MB")
		})
	}
}

// BenchmarkFig8to12PrimaryKeys regenerates Experiment 2's primary-key
// comparison (Figs. 8-12): each Table 1 key at 10% of MaxNeeded,
// reporting the mean percent-of-infinite hit rate that the figures plot.
func BenchmarkFig8to12PrimaryKeys(b *testing.B) {
	for _, name := range workload.Names {
		for _, combo := range policy.PrimaryCombos() {
			b.Run(name+"/"+combo.Primary.String(), func(b *testing.B) {
				tr, base := benchTrace(b, name)
				capacity := base.MaxNeeded / 10
				var run *sim.PolicyRun
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run = sim.RunPolicy(tr, base, combo.New(tr.Start), capacity, 3, sim.RunOptions{})
				}
				b.ReportMetric(100*run.HRRatioMean, "HR/inf-%")
				b.ReportMetric(100*run.Final.HitRate(), "HR%")
			})
		}
	}
}

// BenchmarkExp2WeightedHR regenerates §4.4: the weighted-hit-rate view
// of Experiment 2, where SIZE loses its crown.
func BenchmarkExp2WeightedHR(b *testing.B) {
	for _, name := range []string{"BR", "BL"} {
		for _, spec := range []string{"SIZE", "NREF", "ATIME"} {
			b.Run(name+"/"+spec, func(b *testing.B) {
				tr, base := benchTrace(b, name)
				capacity := base.MaxNeeded / 10
				var run *sim.PolicyRun
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pol, err := policy.Parse(spec, tr.Start)
					if err != nil {
						b.Fatal(err)
					}
					run = sim.RunPolicy(tr, base, pol, capacity, 5, sim.RunOptions{})
				}
				b.ReportMetric(100*run.WHRRatioMean, "WHR/inf-%")
				b.ReportMetric(100*run.Final.WeightedHitRate(), "WHR%")
			})
		}
	}
}

// BenchmarkFig13SizeHistogram regenerates the Fig. 13 document-size
// histogram for BL and reports where the mass sits.
func BenchmarkFig13SizeHistogram(b *testing.B) {
	tr, _ := benchTrace(b, "BL")
	var under1k, under20k float64
	for i := 0; i < b.N; i++ {
		h, err := stats.NewHistogram(0, 20000, 40)
		if err != nil {
			b.Fatal(err)
		}
		seen := map[string]bool{}
		small, n := 0, 0
		for j := range tr.Requests {
			r := &tr.Requests[j]
			if seen[r.URL] {
				continue
			}
			seen[r.URL] = true
			h.Add(float64(r.Size))
			n++
			if r.Size < 1024 {
				small++
			}
		}
		under1k = float64(small) / float64(n)
		under20k = float64(h.N-h.Overflow) / float64(h.N)
	}
	b.ReportMetric(100*under1k, "docs-under-1KB-%")
	b.ReportMetric(100*under20k, "docs-under-20KB-%")
}

// BenchmarkFig14InterreferenceScatter regenerates Fig. 14: the size vs
// inter-reference-time scatter on BL, reporting the log-space center of
// mass the paper reads off the plot (~1 kB, ~4 hours).
func BenchmarkFig14InterreferenceScatter(b *testing.B) {
	tr, _ := benchTrace(b, "BL")
	var cx, cy float64
	for i := 0; i < b.N; i++ {
		last := map[string]int64{}
		var pts []stats.ScatterPoint
		for j := range tr.Requests {
			r := &tr.Requests[j]
			if prev, ok := last[r.URL]; ok && r.Time > prev {
				pts = append(pts, stats.ScatterPoint{X: float64(r.Size), Y: float64(r.Time - prev)})
			}
			last[r.URL] = r.Time
		}
		cx, cy = stats.CenterOfMass(pts)
	}
	b.ReportMetric(cx, "center-size-bytes")
	b.ReportMetric(cy/3600, "center-interref-hours")
}

// BenchmarkFig15SecondaryKeys regenerates the Fig. 15 secondary-key
// study on G, reporting the best secondary's WHR gain over random.
func BenchmarkFig15SecondaryKeys(b *testing.B) {
	tr, base := benchTrace(b, "G")
	var res *sim.Exp2SecondaryResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = sim.Experiment2Secondary(tr, base, 0.10, 11)
	}
	best, bestPeak := 0.0, 0.0
	for _, sr := range res.Runs {
		if sr.WHRvsRandom > best {
			best = sr.WHRvsRandom
			bestPeak = sr.PeakWHRvsRandom
		}
	}
	b.ReportMetric(100*best, "best-secondary-WHR-vs-random-%")
	b.ReportMetric(100*bestPeak, "its-peak-%")
}

// BenchmarkFig16to18TwoLevel regenerates Experiment 3 (Figs. 16-18) on
// BR, C and G.
func BenchmarkFig16to18TwoLevel(b *testing.B) {
	for _, name := range []string{"BR", "C", "G"} {
		b.Run(name, func(b *testing.B) {
			tr, base := benchTrace(b, name)
			var res *sim.Exp3Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = sim.Experiment3(tr, base, 0.10, 13)
			}
			b.ReportMetric(100*res.MeanL2HR, "L2-HR%")
			b.ReportMetric(100*res.MeanL2WHR, "L2-WHR%")
		})
	}
}

// BenchmarkFig19to20Partitioned regenerates Experiment 4 (Figs. 19-20)
// on BR across the three partition splits. Note that at benchScale the
// smaller audio partitions cannot hold even one ~1.8 MB audio file, so
// their WHR metric reads zero — the paper-comparable numbers are the
// full-scale ones in EXPERIMENTS.md (cmd/websim -exp 4 -scale 1.0).
func BenchmarkFig19to20Partitioned(b *testing.B) {
	tr, base := benchTrace(b, "BR")
	var res *sim.Exp4Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = sim.Experiment4(tr, base, 0.10, 17)
	}
	for _, p := range res.Partitions {
		b.ReportMetric(100*p.AggAudioWHR, fmt.Sprintf("audio-WHR%%-at-%.0f%%", 100*p.AudioShare))
	}
	b.ReportMetric(100*res.Partitions[1].AggNonAudioWHR, "nonaudio-WHR%-at-50%")
}

// hostOfURL extracts the server name from an absolute URL (Fig. 1).
func hostOfURL(url string) string {
	const sep = "://"
	i := 0
	for ; i+len(sep) <= len(url); i++ {
		if url[i:i+len(sep)] == sep {
			i += len(sep)
			break
		}
	}
	j := i
	for j < len(url) && url[j] != '/' {
		j++
	}
	return url[i:j]
}
