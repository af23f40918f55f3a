package sim

import (
	"webcache/internal/core"
	"webcache/internal/policy"
	"webcache/internal/stats"
	"webcache/internal/trace"
)

// Exp3Result reports Experiment 3: a finite L1 (SIZE policy) in front of
// an infinite L2, with the L2's HR and WHR measured over *all* client
// requests (Figs. 16–18).
type Exp3Result struct {
	Workload string
	Fraction float64
	L1HR     *stats.DailySeries
	L1WHR    *stats.DailySeries
	L2HR     *stats.DailySeries // daily L2 hits / daily requests
	L2WHR    *stats.DailySeries // daily L2 bytes hit / daily bytes
	L1Final  core.Stats
	L2Final  core.Stats
	// Means over recorded days.
	MeanL2HR, MeanL2WHR float64
}

// TwoLevelStudy runs Experiment 3 at each L1 fraction, fanning the
// independent hierarchy replays across the runner's pool. Results come
// back in fraction order.
func TwoLevelStudy(r *Runner, tr *trace.Trace, base *Exp1Result, fractions []float64, seed uint64) []*Exp3Result {
	return RunAll(r, len(fractions), func(i int) *Exp3Result {
		return Experiment3(tr, base, fractions[i], seed+uint64(i)*17)
	})
}

// Experiment3 replays tr through the two-level hierarchy with L1 sized
// at fraction×MaxNeeded using the best Experiment 2 policy (SIZE with a
// random secondary, per §4.6) and an infinite L2.
func Experiment3(tr *trace.Trace, base *Exp1Result, fraction float64, seed uint64) *Exp3Result {
	l1Cap := capacityFor(base, fraction)
	tl := core.NewTwoLevel(
		core.Config{
			Capacity: l1Cap,
			Policy:   policy.Combo{Primary: policy.KeySize, Secondary: policy.KeyRandom}.New(tr.Start),
			Seed:     seed,
		},
		core.Config{Capacity: 0, Seed: seed + 1},
	)

	l1, l2 := newReplayState(), newReplayState()
	for i := range tr.Requests {
		req := &tr.Requests[i]
		day := req.Day(tr.Start)
		h1, h2 := tl.Access(req)
		l1.observe(day, h1, req.Size)
		l2.observe(day, h2, req.Size)
	}
	l1.flush()
	l2.flush()
	return &Exp3Result{
		Workload: tr.Name, Fraction: fraction,
		L1HR: l1.rates.HR, L1WHR: l1.rates.WHR,
		L2HR: l2.rates.HR, L2WHR: l2.rates.WHR,
		L1Final: tl.L1.Stats(), L2Final: tl.L2.Stats(),
		MeanL2HR: l2.rates.HR.Mean(), MeanL2WHR: l2.rates.WHR.Mean(),
	}
}

// Exp4Partition reports one partition split of Experiment 4.
type Exp4Partition struct {
	AudioShare float64 // fraction of total capacity given to audio
	// Daily WHR of each class measured over all requested bytes
	// (the paper: "the WHRs reported are over all requests").
	AudioWHR    *stats.DailySeries
	NonAudioWHR *stats.DailySeries
	AudioFinal  core.Stats
	OtherFinal  core.Stats
	// Whole-trace aggregates over all requested bytes.
	AggAudioWHR    float64
	AggNonAudioWHR float64
	AggTotalWHR    float64
}

// Exp4Result reports Experiment 4: the audio/non-audio partitioned cache
// on workload BR at three partition splits, with the infinite cache's
// per-class WHR as the reference curves of Figs. 19–20.
type Exp4Result struct {
	Workload string
	Fraction float64
	// InfiniteAudioWHR and InfiniteNonAudioWHR are the infinite-cache
	// per-class daily WHR over all bytes (the "Infinite Cache ... WHR"
	// curves).
	InfiniteAudioWHR    *stats.DailySeries
	InfiniteNonAudioWHR *stats.DailySeries
	Partitions          []*Exp4Partition
}

// Experiment4 runs the partitioned cache with audio shares 1/4, 1/2 and
// 3/4 of fraction×MaxNeeded total capacity, policy SIZE/random in both
// partitions.
func Experiment4(tr *trace.Trace, base *Exp1Result, fraction float64, seed uint64) *Exp4Result {
	return PartitionStudy(DefaultRunner(), tr, base, fraction, []float64{0.25, 0.50, 0.75}, seed)
}

// Experiment4R is Experiment4 on an explicit runner.
func Experiment4R(r *Runner, tr *trace.Trace, base *Exp1Result, fraction float64, seed uint64) *Exp4Result {
	return PartitionStudy(r, tr, base, fraction, []float64{0.25, 0.50, 0.75}, seed)
}

// PartitionStudy generalizes Experiment 4 to arbitrary audio shares.
// The infinite-cache reference replay and each partition split are
// independent full-trace replays, so all of them fan out across the
// runner together; partitions come back in share order.
func PartitionStudy(r *Runner, tr *trace.Trace, base *Exp1Result, fraction float64, shares []float64, seed uint64) *Exp4Result {
	total := capacityFor(base, fraction)
	res := &Exp4Result{Workload: tr.Name, Fraction: fraction}
	res.Partitions = make([]*Exp4Partition, len(shares))

	// Job 0 is the infinite-cache reference; job i+1 is share i.
	r.Do(1+len(shares), func(j int) {
		if j == 0 {
			res.InfiniteAudioWHR, res.InfiniteNonAudioWHR = perClassWHR(tr, core.New(core.Config{Capacity: 0, Seed: seed}))
			return
		}
		i := j - 1
		share := shares[i]
		audioCap := int64(share * float64(total))
		otherCap := total - audioCap
		part := core.NewAudioPartitioned(
			core.Config{
				Capacity: audioCap,
				Policy:   policy.Combo{Primary: policy.KeySize, Secondary: policy.KeyRandom}.New(tr.Start),
				Seed:     seed + uint64(i)*13,
			},
			core.Config{
				Capacity: otherCap,
				Policy:   policy.Combo{Primary: policy.KeySize, Secondary: policy.KeyRandom}.New(tr.Start),
				Seed:     seed + uint64(i)*13 + 1,
			},
		)
		p := &Exp4Partition{AudioShare: share}
		p.AudioWHR, p.NonAudioWHR = perClassWHR(tr, part)
		p.AudioFinal = part.Partition(0).Stats()
		p.OtherFinal = part.Partition(1).Stats()
		if tb := part.BytesRequested(); tb > 0 {
			p.AggAudioWHR = float64(p.AudioFinal.BytesHit) / float64(tb)
			p.AggNonAudioWHR = float64(p.OtherFinal.BytesHit) / float64(tb)
			p.AggTotalWHR = p.AggAudioWHR + p.AggNonAudioWHR
		}
		res.Partitions[i] = p
	})
	return res
}

// perClassWHR replays tr through cache and returns daily (audio bytes
// hit / all bytes requested) and (non-audio bytes hit / all bytes
// requested) series: each class's accumulator sees every request but
// counts only that class's hits.
func perClassWHR(tr *trace.Trace, cache Accessor) (audio, nonAudio *stats.DailySeries) {
	a, o := newReplayState(), newReplayState()
	for i := range tr.Requests {
		req := &tr.Requests[i]
		day := req.Day(tr.Start)
		hit := cache.Access(req)
		isAudio := req.Type == trace.Audio
		a.observe(day, hit && isAudio, req.Size)
		o.observe(day, hit && !isAudio, req.Size)
	}
	a.flush()
	o.flush()
	return a.rates.WHR, o.rates.WHR
}
