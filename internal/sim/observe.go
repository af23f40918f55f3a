package sim

import (
	"time"

	"webcache/internal/core"
	"webcache/internal/obs"
)

// Observer, when non-nil, is the session's observability sink: every
// RunPolicy/Experiment1/Experiment6 replay runs under pprof labels
// (policy=, workload=, experiment=) and emits an obs.ReplaySnapshot
// with its outcome counters and timing, which also sum into the
// observer's cache.* counters. The caches run unhooked either way, so
// an observed replay does no per-request work the plain one does not.
//
// It is nil by default — the disabled path costs one nil check per
// replay and nothing per request — and is set
// before an experiment starts (websim wires it from -metrics-out /
// -progress), never mid-run: replays fan out across goroutines and
// consult it once at start.
var Observer *obs.Observer

// observeReplay runs fn (one whole-trace replay) under pprof labels and
// emits its snapshot: fn's wall time plus the cache's final counters,
// which it also adds into the registry's cache.* counters. stats must
// read the replay's cache after fn returns.
func observeReplay(o *obs.Observer, policyName, workloadName string, capacity int64, fn func(), stats func() core.Stats) {
	labels := []string{
		"policy", policyName,
		"workload", workloadName,
		"experiment", o.Experiment(),
	}
	start := time.Now()
	obs.Span(labels, fn)
	elapsed := time.Since(start)
	st := stats()
	reg := o.Registry()
	reg.Counter("cache.hits").Add(st.Hits)
	reg.Counter("cache.misses").Add(st.Requests - st.Hits)
	reg.Counter("cache.evictions").Add(st.Evictions)
	reg.Counter("cache.evicted_bytes").Add(st.EvictedBytes)
	reg.Counter("cache.inserts").Add(st.Inserted)
	snap := obs.ReplaySnapshot{
		Workload:           workloadName,
		Policy:             policyName,
		Capacity:           capacity,
		Requests:           st.Requests,
		Hits:               st.Hits,
		Misses:             st.Requests - st.Hits,
		BytesRequested:     st.BytesRequested,
		BytesHit:           st.BytesHit,
		Evictions:          st.Evictions,
		EvictedBytes:       st.EvictedBytes,
		SizeChanges:        st.SizeChanges,
		HeapPeak:           st.MaxDocs,
		OccupancyHighWater: st.MaxUsed,
		ReplayNs:           elapsed.Nanoseconds(),
	}
	if st.Requests > 0 {
		snap.NsPerRequest = float64(elapsed.Nanoseconds()) / float64(st.Requests)
	}
	o.EmitReplay(snap)
}

// runnerSummary converts a runner's accounting into the observer's
// end-of-run summary record.
func runnerSummary(st RunnerStats) obs.RunSummary {
	sum := obs.RunSummary{
		Workers:      st.Workers,
		WallNs:       st.Wall.Nanoseconds(),
		CPUNs:        st.CPU.Nanoseconds(),
		Speedup:      st.Speedup(),
		QueueWaitNs:  st.QueueWait.Nanoseconds(),
		PeakInFlight: st.PeakInFlight,
	}
	if st.RunsFinished > 0 {
		sum.MeanQueueNs = st.QueueWait.Nanoseconds() / st.RunsFinished
	}
	return sum
}

// CloseObserver emits the end-of-run summary built from r's accounting
// (r may be nil) into the current Observer and detaches it. It is the
// CLI-facing teardown: call it once after the last experiment.
func CloseObserver(r *Runner) error {
	o := Observer
	if o == nil {
		return nil
	}
	Observer = nil
	var sum obs.RunSummary
	if r != nil {
		sum = runnerSummary(r.Stats())
	}
	return o.Close(sum)
}
