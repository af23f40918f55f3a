package sim

import (
	"slices"

	"webcache/internal/policy"
	"webcache/internal/trace"
)

// Exp2Result reports Experiment 2 for one workload at one cache size:
// every requested key combination's run, ranked against the infinite
// baseline (§3.2, Figs. 8–12).
type Exp2Result struct {
	Workload string
	Base     *Exp1Result
	Fraction float64
	Runs     []*PolicyRun
}

// Experiment2 runs the given key combinations on tr with a cache sized
// at fraction×MaxNeeded. Pass policy.PrimaryCombos() for the Figs. 8–12
// sweep or policy.AllCombos() for the full 36-policy design. Runs fan
// out across the default runner's worker pool.
func Experiment2(tr *trace.Trace, base *Exp1Result, combos []policy.Combo, fraction float64, seed uint64) *Exp2Result {
	return Experiment2R(DefaultRunner(), tr, base, combos, fraction, seed)
}

// Experiment2R is Experiment2 on an explicit runner. Each run builds
// its policy and cache inside the worker, so runs share only the
// read-only trace and baseline; results come back in combo order.
// Building every policy up front on one goroutine instead packs the
// backends' small, hot structs into shared cache lines that the workers
// then write concurrently: BenchmarkExperiment2Parallel took about
// 50 % longer on a 2-core machine.
//
// Workers claim the slowest replays first: heap-backed combos, then
// size-bucketed, then list-backed (AllCombos lists the heap-backed
// NREF and DAY(ATIME) primaries last, which left one worker replaying
// a heap combo alone at the end of every sweep). Each run keeps its
// combo's index for its seed and result slot, so the order changes no
// result.
func Experiment2R(r *Runner, tr *trace.Trace, base *Exp1Result, combos []policy.Combo, fraction float64, seed uint64) *Exp2Result {
	capacity := capacityFor(base, fraction)
	if Observer != nil {
		Observer.AddReplays(len(combos))
	}
	order := make([]int, len(combos))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return primaryRank[combos[a].Primary] - primaryRank[combos[b].Primary]
	})
	runs := make([]*PolicyRun, len(combos))
	r.Do(len(combos), func(j int) {
		i := order[j]
		c := combos[i]
		run := RunPolicy(tr, base, c.New(tr.Start), capacity, seed+uint64(i)*7919, RunOptions{Label: c.String()})
		run.Policy = c.String()
		runs[i] = run
	})
	return &Exp2Result{Workload: tr.Name, Base: base, Fraction: fraction, Runs: runs}
}

// primaryRank orders combos by the replay cost of the backend their
// primary key selects (policy.NewSorted; DESIGN.md §12), slowest
// first: absent keys (NREF, DAY(ATIME), the extension keys) rank 0 with
// the heap, ahead of the size buckets and the recency lists. It only
// schedules, so DAY(ATIME)/ATIME, a list, ranking with the heap costs
// nothing but a slot in the queue.
var primaryRank = map[policy.Key]int{
	policy.KeySize: 1, policy.KeyLog2Size: 1,
	policy.KeyATime: 2, policy.KeyETime: 2,
}

// ExperimentClassicsR runs the literature policies of Table 3 (plus
// the extension policies) at fraction×MaxNeeded on r.
func ExperimentClassicsR(r *Runner, tr *trace.Trace, base *Exp1Result, fraction float64, seed uint64) *Exp2Result {
	capacity := capacityFor(base, fraction)
	// Constructors, not policies: each worker builds its own policy so
	// no mutable state crosses goroutines.
	mks := []func() policy.Policy{
		func() policy.Policy { return policy.NewFIFO() },
		func() policy.Policy { return policy.NewLRU() },
		func() policy.Policy { return policy.NewLFU() },
		func() policy.Policy { return policy.NewLRUMin() },
		func() policy.Policy { return policy.NewHyperG() },
		func() policy.Policy { return policy.NewPitkowRecker(tr.Start) },
		func() policy.Policy { return policy.NewGDS1() },
		func() policy.Policy { return policy.NewGDSBytes() },
	}
	if Observer != nil {
		Observer.AddReplays(len(mks))
	}
	runs := RunAll(r, len(mks), func(i int) *PolicyRun {
		return RunPolicy(tr, base, mks[i](), capacity, seed+uint64(i)*104729, RunOptions{})
	})
	return &Exp2Result{Workload: tr.Name, Base: base, Fraction: fraction, Runs: runs}
}

// SecondaryRun scores one secondary key against the random-secondary
// baseline (Fig. 15).
type SecondaryRun struct {
	Secondary string
	Run       *PolicyRun
	// WHRvsRandom and HRvsRandom are the mean ratios of this run's
	// daily rates to the random-secondary run's (1.0 = no effect; the
	// paper reports ≈1.01 at best).
	WHRvsRandom float64
	HRvsRandom  float64
	// PeakWHRvsRandom is the maximum daily ratio (the paper quotes NREF
	// peaking at 1.05).
	PeakWHRvsRandom float64
}

// Exp2SecondaryResult reports the Fig. 15 sweep: primary ⌊log2 SIZE⌋,
// each other key as secondary, scored against a random secondary.
type Exp2SecondaryResult struct {
	Workload string
	Fraction float64
	Random   *PolicyRun
	Runs     []*SecondaryRun
}

// Experiment2Secondary performs the Fig. 15 study on tr.
func Experiment2Secondary(tr *trace.Trace, base *Exp1Result, fraction float64, seed uint64) *Exp2SecondaryResult {
	return Experiment2SecondaryR(DefaultRunner(), tr, base, fraction, seed)
}

// Experiment2SecondaryR is Experiment2Secondary on an explicit runner:
// the random-secondary baseline and the five keyed runs are independent
// replays, so all six fan out together and the vs-random ratios are
// computed once every run is back.
func Experiment2SecondaryR(r *Runner, tr *trace.Trace, base *Exp1Result, fraction float64, seed uint64) *Exp2SecondaryResult {
	capacity := capacityFor(base, fraction)
	type job struct {
		combo policy.Combo
		seed  uint64
	}
	jobs := []job{{policy.Combo{Primary: policy.KeyLog2Size, Secondary: policy.KeyRandom}, seed}}
	for i, c := range policy.SecondaryCombos() {
		if c.Secondary == policy.KeyRandom {
			continue
		}
		jobs = append(jobs, job{c, seed + uint64(i+1)*31337})
	}
	if Observer != nil {
		Observer.AddReplays(len(jobs))
	}
	runs := RunAll(r, len(jobs), func(i int) *PolicyRun {
		j := jobs[i]
		return RunPolicy(tr, base, j.combo.New(tr.Start), capacity, j.seed, RunOptions{Label: j.combo.String()})
	})
	randomRun := runs[0]
	res := &Exp2SecondaryResult{Workload: tr.Name, Fraction: fraction, Random: randomRun}
	for i, run := range runs[1:] {
		sr := &SecondaryRun{
			Secondary:   jobs[i+1].combo.Secondary.String(),
			Run:         run,
			WHRvsRandom: run.Rates.WHR.MeanRatioTo(randomRun.Rates.WHR),
			HRvsRandom:  run.Rates.HR.MeanRatioTo(randomRun.Rates.HR),
		}
		for _, p := range run.Rates.WHR.RatioTo(randomRun.Rates.WHR) {
			if p.Value > sr.PeakWHRvsRandom {
				sr.PeakWHRvsRandom = p.Value
			}
		}
		res.Runs = append(res.Runs, sr)
	}
	return res
}

func capacityFor(base *Exp1Result, fraction float64) int64 {
	capacity := int64(fraction * float64(base.MaxNeeded))
	if capacity < 1 {
		capacity = 1
	}
	return capacity
}
