// Package obs is the simulator's observability layer: atomic metric
// primitives with a registry and text/JSONL exposition, per-replay
// metric snapshots, pprof label spans, a live progress surface, and
// build identification for metric attribution.
//
// The contract is zero overhead when disabled. Nothing in this package
// is consulted on the per-request hot path; the cache event hooks it
// feeds (core.CacheHooks) are nil-checked function slots that cost one
// predictable branch each when unset, and the replay spans and
// snapshots are per-replay (tens of thousands of requests), not
// per-request. internal/sim's BenchmarkReplayObserved measures the
// enabled-path cost against BenchmarkReplay, family by family.
package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SchemaVersion identifies the JSONL metric record layout; bump it when
// a record's fields change meaning.
const SchemaVersion = "webcache-metrics/1"

// ReplaySnapshot is the per-replay metric record: one finite- or
// infinite-cache replay's outcome counters and timing, emitted as a
// JSONL line and published to the event stream. Every counter is
// copied out of core.Stats after the replay finishes, so emitting a
// snapshot can never perturb the simulation it describes.
type ReplaySnapshot struct {
	Record     string `json:"record"` // always "replay"
	Experiment string `json:"experiment,omitempty"`
	Workload   string `json:"workload"`
	Policy     string `json:"policy"`
	Capacity   int64  `json:"capacity"` // bytes; 0 = infinite

	Requests       int64 `json:"requests"`
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	BytesRequested int64 `json:"bytes_requested"`
	BytesHit       int64 `json:"bytes_hit"`
	Evictions      int64 `json:"evictions"`
	EvictedBytes   int64 `json:"evicted_bytes"`
	SizeChanges    int64 `json:"size_changes"`

	// HeapPeak is the peak number of resident documents (the policy
	// heap's maximum depth); OccupancyHighWater is the peak resident
	// bytes (MaxUsed / MaxNeeded on an infinite cache).
	HeapPeak           int64 `json:"heap_peak"`
	OccupancyHighWater int64 `json:"occupancy_high_water"`

	ReplayNs     int64   `json:"replay_ns"`
	NsPerRequest float64 `json:"ns_per_request"`
}

// RunSummary is the end-of-run JSONL record: the runner's parallelism
// accounting plus the registry's accumulated event counters.
type RunSummary struct {
	Record       string         `json:"record"` // always "summary"
	Replays      int            `json:"replays"`
	Workers      int            `json:"workers,omitempty"`
	WallNs       int64          `json:"wall_ns,omitempty"`
	CPUNs        int64          `json:"cpu_ns,omitempty"`
	Speedup      float64        `json:"speedup,omitempty"`
	QueueWaitNs  int64          `json:"queue_wait_ns,omitempty"`
	MeanQueueNs  int64          `json:"mean_queue_wait_ns,omitempty"`
	PeakInFlight int            `json:"peak_in_flight,omitempty"`
	Metrics      map[string]any `json:"metrics,omitempty"`
	Histograms   map[string]any `json:"histograms,omitempty"`
	Generated    string         `json:"generated"`
}

// Observer is a session-level observability sink. A nil *Observer means
// observability is off; every integration point nil-checks before doing
// any work, so the disabled path costs one branch per replay.
//
// Observers are safe for concurrent use: replays fanned out by
// sim.Runner emit snapshots from many goroutines at once.
type Observer struct {
	reg      *Registry
	progress *Progress
	ring     *EventRing
	events   *Broadcaster

	mu         sync.Mutex
	enc        *json.Encoder // JSONL metric stream; nil = none
	replays    int
	experiment string
}

// Options configures an Observer.
type Options struct {
	// Metrics, when non-nil, receives the JSONL metric stream: a header
	// record at construction, one "replay" record per snapshot, and a
	// "summary" record at Close.
	Metrics io.Writer
	// Meta is merged into the header record (e.g. git_rev, command
	// flags) so metric files are attributable like BENCH_replay.json
	// entries.
	Meta map[string]any
	// Progress, when non-nil, is advanced by one for every emitted
	// replay snapshot; pair it with AddReplays from the experiment
	// entry points.
	Progress *Progress
	// Ring, when non-nil, receives event-level cache traces
	// (hit/miss/evict/add) from the cache hooks — the source for the
	// Chrome trace export and the eviction-age histograms.
	Ring *EventRing
	// Events, when non-nil, has every emitted replay snapshot published
	// to it — the push source behind an introspection Server's /events
	// SSE stream.
	Events *Broadcaster
}

// New returns an observer. When opts.Metrics is set, the JSONL header
// record is written immediately.
func New(opts Options) *Observer {
	o := &Observer{
		reg:      NewRegistry(),
		progress: opts.Progress,
		ring:     opts.Ring,
		events:   opts.Events,
	}
	if opts.Metrics != nil {
		o.enc = json.NewEncoder(opts.Metrics)
		header := map[string]any{
			"record": "header",
			"schema": SchemaVersion,
		}
		for k, v := range opts.Meta {
			header[k] = v
		}
		o.mu.Lock()
		o.enc.Encode(header)
		o.mu.Unlock()
	}
	return o
}

// Registry returns the observer's metric registry, shared by the cache
// event hooks.
func (o *Observer) Registry() *Registry { return o.reg }

// Ring returns the event trace ring, nil when event tracing is off.
func (o *Observer) Ring() *EventRing { return o.ring }

// SetExperiment records the experiment name stamped on subsequent
// snapshots and pprof spans.
func (o *Observer) SetExperiment(name string) {
	o.mu.Lock()
	o.experiment = name
	o.mu.Unlock()
}

// Experiment returns the current experiment name.
func (o *Observer) Experiment() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.experiment
}

// AddReplays grows the progress total by n (no-op without a Progress).
func (o *Observer) AddReplays(n int) {
	if o.progress != nil {
		o.progress.AddTotal(n)
	}
}

// EmitReplay records one replay's snapshot: it is counted, streamed as
// a JSONL line when a sink is attached, advances progress and is
// published to the event stream.
func (o *Observer) EmitReplay(s ReplaySnapshot) {
	s.Record = "replay"
	if s.Experiment == "" {
		s.Experiment = o.Experiment()
	}
	o.mu.Lock()
	o.replays++
	if o.enc != nil {
		o.enc.Encode(s)
	}
	o.mu.Unlock()
	if o.progress != nil {
		o.progress.Done(1)
	}
	if o.events != nil {
		o.events.Publish(s)
	}
}

// Close writes the end-of-run summary record (runner accounting plus
// the registry's counters) and stops the progress surface. runner may
// be nil when no parallel pool was involved.
func (o *Observer) Close(sum RunSummary) error {
	if o.progress != nil {
		o.progress.Stop()
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	sum.Record = "summary"
	sum.Replays = o.replays
	sum.Metrics, sum.Histograms = o.reg.Snapshot(), o.reg.HistogramSnapshot()
	sum.Generated = time.Now().UTC().Format(time.RFC3339)
	if o.enc != nil {
		return o.enc.Encode(sum)
	}
	return nil
}
