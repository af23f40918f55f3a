// Package sim drives the paper's four experiments (Table 5) over
// validated traces: infinite-cache bounds (Experiment 1), the 36-policy
// removal comparison (Experiment 2, Figs. 8–12 and 15), the two-level
// hierarchy (Experiment 3, Figs. 16–18) and the media-partitioned cache
// (Experiment 4, Figs. 19–20).
package sim

import (
	"webcache/internal/core"
	"webcache/internal/policy"
	"webcache/internal/stats"
	"webcache/internal/trace"
)

// Accessor is anything that can process a request and report a hit; it
// is satisfied by *core.Cache and adapters over the hierarchy types.
type Accessor interface {
	Access(req *trace.Request) bool
}

// DailyRates holds a per-day HR and WHR series for one cache run.
type DailyRates struct {
	HR  *stats.DailySeries
	WHR *stats.DailySeries
}

// replayState accumulates request outcomes into daily HR and WHR
// series; every daily series the experiments report is built by one.
type replayState struct {
	rates           DailyRates
	day             int
	started         bool
	dayReqs, dayHit int64
	dayBytes, dayBH int64
}

// newReplayState returns an accumulator with empty series.
func newReplayState() replayState {
	return replayState{rates: DailyRates{HR: &stats.DailySeries{}, WHR: &stats.DailySeries{}}}
}

// observe records one request outcome at the given day index.
func (st *replayState) observe(day int, hit bool, size int64) {
	if st.started && day != st.day {
		st.flush()
	}
	st.day = day
	st.started = true
	st.dayReqs++
	st.dayBytes += size
	if hit {
		st.dayHit++
		st.dayBH += size
	}
}

// flush records the current day's rates, if it saw any request.
func (st *replayState) flush() {
	if st.dayReqs == 0 {
		return
	}
	st.rates.HR.Add(st.day, float64(st.dayHit)/float64(st.dayReqs))
	if st.dayBytes > 0 {
		st.rates.WHR.Add(st.day, float64(st.dayBH)/float64(st.dayBytes))
	} else {
		st.rates.WHR.Add(st.day, 0)
	}
	st.dayReqs, st.dayHit, st.dayBytes, st.dayBH = 0, 0, 0, 0
}

// ReplayColumnar feeds every request of the interned columnar view
// through cache and returns the daily HR/WHR series. onDayEnd, when
// non-nil, runs at each day boundary (used by the periodic-sweep
// ablation). Every per-request field (ID, size, time, day, type) is a
// column read, and the cache's entry lookup is a slice index; the day
// column is shared by every replay of a sweep, so no replay divides a
// timestamp, and the loop allocates only the returned daily series,
// each sized up front for the view's span of days.
func ReplayColumnar(col *trace.Columnar, cache *core.Cache, onDayEnd func(day int)) DailyRates {
	st := newReplayState()
	if n := len(col.Day); n > 0 {
		days := int(col.Day[n-1]-col.Day[0]) + 1
		st.rates.HR.Grow(days)
		st.rates.WHR.Grow(days)
	}
	prevDay := -1
	for i := range col.IDs {
		day := int(col.Day[i])
		if prevDay >= 0 && day != prevDay && onDayEnd != nil {
			onDayEnd(prevDay)
		}
		hit := cache.AccessIndex(i)
		st.observe(day, hit, col.Sizes[i])
		prevDay = day
	}
	if prevDay >= 0 && onDayEnd != nil {
		onDayEnd(prevDay)
	}
	st.flush()
	return st.rates
}

// Exp1Result reports Experiment 1 for one workload: the maximum
// achievable hit rates (infinite cache) and MaxNeeded, the cache size at
// which no document is ever removed (§3.1 objectives 1 and 2).
type Exp1Result struct {
	Workload  string
	Rates     DailyRates
	Final     core.Stats
	MaxNeeded int64
	// MeanHR and MeanWHR are daily rates averaged over recorded days,
	// the paper's "averaged over all days in the trace" summary.
	MeanHR, MeanWHR float64
	// AggHR and AggWHR are whole-trace aggregates.
	AggHR, AggWHR float64
}

// Experiment1 simulates tr through an infinite cache.
func Experiment1(tr *trace.Trace, seed uint64) *Exp1Result {
	cfg := core.Config{Capacity: 0, Seed: seed}
	o := Observer
	if o != nil {
		o.AddReplays(1)
	}
	var cache *core.Cache
	var rates DailyRates
	replay := func() {
		col := tr.Columnar()
		cache = core.NewColumnar(cfg, col)
		rates = ReplayColumnar(col, cache, nil)
	}
	if o != nil {
		observeReplay(o, "(infinite)", tr.Name, 0, replay, func() core.Stats { return cache.Stats() })
	} else {
		replay()
	}
	final := cache.Stats()
	cache.Release()
	return &Exp1Result{
		Workload:  tr.Name,
		Rates:     rates,
		Final:     final,
		MaxNeeded: final.MaxUsed,
		MeanHR:    rates.HR.Mean(),
		MeanWHR:   rates.WHR.Mean(),
		AggHR:     final.HitRate(),
		AggWHR:    final.WeightedHitRate(),
	}
}

// PolicyRun reports one finite-cache run of Experiment 2.
type PolicyRun struct {
	Policy   string
	Fraction float64 // cache size as a fraction of MaxNeeded
	Capacity int64
	Rates    DailyRates
	Final    core.Stats
	// HRRatioMean and WHRRatioMean are the mean ratios of this run's
	// 7-day-averaged daily rates to the infinite cache's (the y-axis of
	// Figs. 8–12, as a fraction of 1).
	HRRatioMean  float64
	WHRRatioMean float64
}

// RunOptions tunes a single finite-cache run.
type RunOptions struct {
	// Sweep, when positive, runs a periodic end-of-day removal down to
	// this fraction of capacity (the Pitkow/Recker comfort level, §1.3).
	Sweep float64
	// LatencyOf feeds the KeyLatency extension key.
	LatencyOf func(url string, size int64) float64
	// Label names the run in observability output (pprof labels and
	// metric snapshots); empty means the policy's own Name. Experiment 2
	// passes the combo's "PRIMARY/SECONDARY" grid notation, which a
	// random-secondary policy's Name abbreviates.
	Label string
}

// RunPolicy replays tr through a finite cache of the given capacity and
// policy, and scores it against the Experiment 1 baseline. The replay
// runs over the trace's shared interned columnar view (built once per trace, fanned out read-only to
// every run of a sweep) through an ID-indexed cache, and the cache's
// entry memory is released for the next run once its results are
// copied out. pol is invalid after RunPolicy returns.
func RunPolicy(tr *trace.Trace, base *Exp1Result, pol policy.Policy, capacity int64, seed uint64, opts RunOptions) *PolicyRun {
	cfg := core.Config{
		Capacity:  capacity,
		Policy:    pol,
		Seed:      seed,
		LatencyOf: opts.LatencyOf,
		SizeHint:  sizeHint(base, capacity),
	}
	var cache *core.Cache
	var rates DailyRates
	replay := func() {
		col := tr.Columnar()
		cache = core.NewColumnar(cfg, col)
		var onDay func(int)
		if opts.Sweep > 0 {
			onDay = func(int) { cache.Sweep(opts.Sweep) }
		}
		rates = ReplayColumnar(col, cache, onDay)
	}
	if o := Observer; o != nil {
		label := opts.Label
		if label == "" {
			label = pol.Name()
		}
		observeReplay(o, label, tr.Name, capacity, replay, func() core.Stats { return cache.Stats() })
	} else {
		replay()
	}
	run := &PolicyRun{
		Policy:   pol.Name(),
		Capacity: capacity,
		Rates:    rates,
		Final:    cache.Stats(),
	}
	cache.Release()
	if base != nil {
		run.HRRatioMean = rates.HR.MeanRatioTo(base.Rates.HR)
		run.WHRRatioMean = rates.WHR.MeanRatioTo(base.Rates.WHR)
		if base.MaxNeeded > 0 {
			run.Fraction = float64(capacity) / float64(base.MaxNeeded)
		}
	}
	return run
}

// sizeHint estimates how many documents a cache of the given capacity
// holds at once, from the infinite-cache baseline's mean document
// size, with 3× headroom: size-keyed policies evict large documents
// first and so retain far more documents than the mean size predicts.
// It is only a pre-sizing hint; any value yields identical results.
func sizeHint(base *Exp1Result, capacity int64) int {
	if base == nil || base.MaxNeeded <= 0 || base.Final.Docs <= 0 || capacity <= 0 {
		return 0
	}
	docs := 3 * capacity * base.Final.Docs / base.MaxNeeded
	if docs > base.Final.Docs {
		docs = base.Final.Docs
	}
	return int(docs)
}
