package main

import (
	"runtime/metrics"

	"webcache/internal/obs"
)

// memoryLimit is the soft memory limit main gives the runtime for a
// cache of capacity bytes: capacity + capacity/8 + 32 MiB.
//
// Without it a full cache costs twice its size in RAM. The default
// pacer (GOGC=100) lets the heap grow to twice the live heap before it
// collects, and a full cache is nearly all live heap. The limit keeps
// GOGC at 100 but caps that growth. A cache whose doubled heap fits
// under the limit is paced exactly as without one. A large, full cache
// gets a bounded allowance for garbage instead of a second copy of
// itself. Each term was measured with runtime/metrics on the proxy-hit
// benchmark (trace C, every document resident, mean ~15 KB) on a
// two-core machine:
//
//   - capacity/8: on a full cache the live heap is about 1.07 ×
//     capacity. That is the size-class rounding of bodies (3 %) plus
//     about 500 B of entry, object, header values, map slot and URL
//     per document, which capacity/8 covers for mean documents of
//     about 5 KB or more.
//   - 32 MiB: the transient garbage of the hit path, about 2 KB per
//     hit, so about 4 collections a second at 40k hits/s instead of
//     1.2, plus about 8 MB of runtime memory outside the heap.
//
// Going tighter costs more than it saves: GOMEMLIMIT=85MiB, which left
// about 8 MB for garbage, cost 12 % more CPU per request and 32–47 %
// more p99 latency to save another 19 MB. The limit is soft: if the
// live heap outgrows it (tiny documents, or many large misses in flight
// at once) the runtime caps the collector near half the CPU and lets
// the heap grow.
func memoryLimit(capacity int64) int64 {
	return capacity + capacity/8 + 32<<20
}

// applyMemoryLimit gives the runtime memoryLimit(capacity) through set
// (debug.SetMemoryLimit in main) unless getenv reports that the operator
// already chose a limit with GOMEMLIMIT, which then stands. It returns
// the limit in force and whether it was derived from capacity.
func applyMemoryLimit(capacity int64, getenv func(string) string, set func(int64) int64) (limit int64, derived bool) {
	if getenv("GOMEMLIMIT") != "" {
		return set(-1), false // a negative limit reads the current one
	}
	limit = memoryLimit(capacity)
	set(limit)
	return limit, true
}

// memoryMetrics are the runtime/metrics samples the stats document's
// memory section reports, under the names it gives them; /metrics
// carries the same values as runtime.<name> gauges.
var memoryMetrics = []struct{ name, sample string }{
	{"memory_limit_bytes", "/gc/gomemlimit:bytes"},
	{"heap_live_bytes", "/gc/heap/live:bytes"},
	{"heap_goal_bytes", "/gc/heap/goal:bytes"},
	{"mapped_bytes", "/memory/classes/total:bytes"},
	{"gc_cycles", "/gc/cycles/total:gc-cycles"},
}

// readMemory reads every memoryMetrics sample at once. A sample this
// runtime does not export reads 0; an unset limit reads math.MaxInt64.
func readMemory() map[string]int64 {
	samples := make([]metrics.Sample, len(memoryMetrics))
	for i, m := range memoryMetrics {
		samples[i].Name = m.sample
	}
	metrics.Read(samples)
	out := make(map[string]int64, len(samples))
	for i, s := range samples {
		var v int64
		if s.Value.Kind() == metrics.KindUint64 {
			v = int64(s.Value.Uint64())
		}
		out[memoryMetrics[i].name] = v
	}
	return out
}

// registerMemoryGauges exports each memoryMetrics sample as a
// runtime.<name> gauge, read when /metrics is scraped.
func registerMemoryGauges(reg *obs.Registry) {
	for _, m := range memoryMetrics {
		reg.GaugeFunc("runtime."+m.name, func() int64 { return readMemory()[m.name] })
	}
}
