package sim

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"webcache/internal/obs"
	"webcache/internal/policy"
)

// withObserver installs o as the package observer for the test's
// duration. The observer is package state, so these tests cannot run
// in parallel with each other — none call t.Parallel.
func withObserver(t *testing.T, o *obs.Observer) {
	t.Helper()
	prev := Observer
	Observer = o
	t.Cleanup(func() { Observer = prev })
}

// stripTiming zeroes a snapshot's wall-clock fields so runs can be
// compared across worker counts.
func stripTiming(s obs.ReplaySnapshot) obs.ReplaySnapshot {
	s.ReplayNs = 0
	s.NsPerRequest = 0
	return s
}

// replaySnapshots decodes the replay records of a JSONL metric stream,
// in emission order.
func replaySnapshots(t *testing.T, buf *bytes.Buffer) []obs.ReplaySnapshot {
	t.Helper()
	var out []obs.ReplaySnapshot
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for dec.More() {
		var s obs.ReplaySnapshot
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("bad JSONL record: %v", err)
		}
		if s.Record == "replay" {
			out = append(out, s)
		}
	}
	return out
}

// sortSnaps orders snapshots by policy name: parallel runs emit in
// completion order, which is not deterministic.
func sortSnaps(snaps []obs.ReplaySnapshot) {
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Policy < snaps[j].Policy })
}

// TestObserverSnapshotsMatchStats runs a small sweep under an observer
// and checks each snapshot mirrors its run's final stats.
func TestObserverSnapshotsMatchStats(t *testing.T) {
	tr := dayTrace(30)
	base := Experiment1(tr, 1)
	var buf bytes.Buffer
	o := obs.New(obs.Options{Metrics: &buf})
	o.SetExperiment("2")
	withObserver(t, o)

	r := NewRunner(RunnerConfig{Workers: 1})
	combos := policy.PrimaryCombos()[:4]
	res := Experiment2R(r, tr, base, combos, 0.25, 5)

	snaps := replaySnapshots(t, &buf)
	if len(snaps) != len(combos) {
		t.Fatalf("%d snapshots for %d replays", len(snaps), len(combos))
	}
	byPolicy := map[string]obs.ReplaySnapshot{}
	for _, s := range snaps {
		if s.Experiment != "2" {
			t.Errorf("snapshot experiment = %q, want 2", s.Experiment)
		}
		if s.Workload != tr.Name {
			t.Errorf("snapshot workload = %q, want %q", s.Workload, tr.Name)
		}
		byPolicy[s.Policy] = s
	}
	for _, run := range res.Runs {
		s, ok := byPolicy[run.Policy]
		if !ok {
			t.Fatalf("no snapshot for policy %q (have %v)", run.Policy, byPolicy)
		}
		st := run.Final
		if s.Requests != st.Requests || s.Hits != st.Hits || s.Misses != st.Requests-st.Hits ||
			s.Evictions != st.Evictions || s.EvictedBytes != st.EvictedBytes ||
			s.HeapPeak != st.MaxDocs || s.OccupancyHighWater != st.MaxUsed {
			t.Errorf("policy %q: snapshot %+v does not mirror stats %+v", run.Policy, s, st)
		}
		if s.Capacity != run.Capacity {
			t.Errorf("policy %q: snapshot capacity %d, want %d", run.Policy, s.Capacity, run.Capacity)
		}
		if s.ReplayNs <= 0 {
			t.Errorf("policy %q: no replay timing recorded", run.Policy)
		}
	}
}

// TestObserverSnapshotsWorkerInvariant is the determinism contract for
// the observability layer: the same sweep observed with 1 and 8 workers
// must emit identical snapshots (modulo wall-clock timing and emission
// order) — parallelism may never leak into the metrics.
func TestObserverSnapshotsWorkerInvariant(t *testing.T) {
	tr := dayTrace(30)
	base := Experiment1(tr, 1)
	combos := policy.PrimaryCombos()

	runOnce := func(workers int) []obs.ReplaySnapshot {
		var buf bytes.Buffer
		withObserver(t, obs.New(obs.Options{Metrics: &buf}))
		r := NewRunner(RunnerConfig{Workers: workers})
		Experiment2R(r, tr, base, combos, 0.25, 5)
		snaps := replaySnapshots(t, &buf)
		for i := range snaps {
			snaps[i] = stripTiming(snaps[i])
		}
		sortSnaps(snaps)
		return snaps
	}

	one := runOnce(1)
	eight := runOnce(8)
	if len(one) != len(combos) || len(eight) != len(combos) {
		t.Fatalf("snapshot counts: 1-worker %d, 8-worker %d, want %d", len(one), len(eight), len(combos))
	}
	for i := range one {
		if one[i] != eight[i] {
			t.Errorf("snapshot %d differs between worker counts:\n1: %+v\n8: %+v", i, one[i], eight[i])
		}
	}
}

// TestObserverResultsUnperturbed checks the acceptance contract from
// the simulation side: enabling the observer must not change any run
// result.
func TestObserverResultsUnperturbed(t *testing.T) {
	tr := dayTrace(30)
	base := Experiment1(tr, 1)
	combos := policy.PrimaryCombos()[:6]
	r := NewRunner(RunnerConfig{Workers: 4})

	bare := Experiment2R(r, tr, base, combos, 0.25, 5)

	withObserver(t, obs.New(obs.Options{}))
	observed := Experiment2R(r, tr, base, combos, 0.25, 5)

	for i := range bare.Runs {
		if bare.Runs[i].Final != observed.Runs[i].Final {
			t.Errorf("run %d (%s): stats differ with observer enabled", i, bare.Runs[i].Policy)
		}
		if bare.Runs[i].HRRatioMean != observed.Runs[i].HRRatioMean {
			t.Errorf("run %d (%s): HR ratio differs with observer enabled", i, bare.Runs[i].Policy)
		}
	}
}

// TestObserverRegistryCountsAggregate checks the cache.* counters sum
// across every replay of a sweep.
func TestObserverRegistryCountsAggregate(t *testing.T) {
	tr := dayTrace(30)
	base := Experiment1(tr, 1)
	o := obs.New(obs.Options{})
	withObserver(t, o)
	r := NewRunner(RunnerConfig{Workers: 4})
	res := Experiment2R(r, tr, base, policy.PrimaryCombos()[:4], 0.25, 5)

	var hits, misses, evictions int64
	for _, run := range res.Runs {
		hits += run.Final.Hits
		misses += run.Final.Requests - run.Final.Hits
		evictions += run.Final.Evictions
	}
	// The Experiment1 baseline above ran unobserved; the registry holds
	// exactly the sweep's events.
	reg := o.Registry()
	if got := reg.Counter("cache.hits").Load(); got != hits {
		t.Errorf("registry hits = %d, want %d", got, hits)
	}
	if got := reg.Counter("cache.misses").Load(); got != misses {
		t.Errorf("registry misses = %d, want %d", got, misses)
	}
	if got := reg.Counter("cache.evictions").Load(); got != evictions {
		t.Errorf("registry evictions = %d, want %d", got, evictions)
	}
}

// TestCloseObserverSummary checks CloseObserver writes the runner's
// accounting as the JSONL summary record and detaches the observer.
func TestCloseObserverSummary(t *testing.T) {
	tr := dayTrace(30)
	base := Experiment1(tr, 1)
	var buf bytes.Buffer
	o := obs.New(obs.Options{Metrics: &buf})
	withObserver(t, o)
	r := NewRunner(RunnerConfig{Workers: 2})
	Experiment2R(r, tr, base, policy.PrimaryCombos()[:3], 0.25, 5)

	if err := CloseObserver(r); err != nil {
		t.Fatal(err)
	}
	if Observer != nil {
		t.Fatal("CloseObserver did not detach the observer")
	}
	if err := CloseObserver(r); err != nil { // idempotent on nil
		t.Fatal(err)
	}

	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	var last map[string]any
	for dec.More() {
		last = nil
		if err := dec.Decode(&last); err != nil {
			t.Fatal(err)
		}
	}
	if last["record"] != "summary" {
		t.Fatalf("last record = %v, want summary", last)
	}
	if last["replays"] != float64(3) {
		t.Fatalf("summary replays = %v, want 3", last["replays"])
	}
	if last["workers"] != float64(2) {
		t.Fatalf("summary workers = %v, want 2", last["workers"])
	}
	if _, ok := last["metrics"].(map[string]any); !ok {
		t.Fatalf("summary has no metrics map: %v", last)
	}
}
