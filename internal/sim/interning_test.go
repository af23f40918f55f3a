package sim

import (
	"reflect"
	"testing"

	"webcache/internal/core"
	"webcache/internal/policy"
	"webcache/internal/trace"
)

// The interned columnar engine's contract: every experiment that runs
// through RunPolicy produces results deeply equal to the string-indexed
// engine's. These tests replay each run a second time through a
// test-only string path — core.New plus a loop over Access, with the
// Config RunPolicy builds — and require reflect.DeepEqual on the daily
// series and the final statistics, the sim-level counterpart of core's
// TestInternedMatchesStringEngine.

// stringReplay runs tr through a string-indexed cache built from cfg.
// It computes each request's day from its timestamp, independently of
// the columnar view's day column.
func stringReplay(tr *trace.Trace, cfg core.Config) (DailyRates, core.Stats) {
	cache := core.New(cfg)
	st := newReplayState()
	for i := range tr.Requests {
		req := &tr.Requests[i]
		st.observe(req.Day(tr.Start), cache.Access(req), req.Size)
	}
	st.flush()
	return st.rates, cache.Stats()
}

// checkRun requires run, produced by RunPolicy, to equal the string
// engine's replay of a fresh pol at the same capacity and seed.
func checkRun(t *testing.T, tr *trace.Trace, base *Exp1Result, run *PolicyRun, pol policy.Policy, seed uint64) {
	t.Helper()
	rates, final := stringReplay(tr, core.Config{
		Capacity: run.Capacity,
		Policy:   pol,
		Seed:     seed,
		SizeHint: sizeHint(base, run.Capacity),
	})
	if !reflect.DeepEqual(run.Rates, rates) || !reflect.DeepEqual(run.Final, final) {
		t.Errorf("%s %s: interned result differs from string engine", tr.Name, run.Policy)
	}
}

func TestInterningExperiment1(t *testing.T) {
	for _, wl := range []string{"C", "BL"} {
		tr := detTrace(t, wl, 5)
		got := Experiment1(tr, 1)
		rates, final := stringReplay(tr, core.Config{Capacity: 0, Seed: 1})
		if !reflect.DeepEqual(got.Rates, rates) || !reflect.DeepEqual(got.Final, final) {
			t.Errorf("Experiment1 %s: interned result differs from string engine", wl)
		}
	}
}

func TestInterningExperiment2(t *testing.T) {
	r := DefaultRunner()
	for _, wl := range []string{"C", "BL"} {
		tr := detTrace(t, wl, 5)
		base := Experiment1(tr, 1)
		combos := policy.PrimaryCombos()
		res := Experiment2R(r, tr, base, combos, 0.10, 2)
		for i, c := range combos {
			checkRun(t, tr, base, res.Runs[i], c.New(tr.Start), 2+uint64(i)*7919)
		}
	}
}

func TestInterningExperiment2Secondary(t *testing.T) {
	r := DefaultRunner()
	tr := detTrace(t, "G", 11)
	base := Experiment1(tr, 1)
	res := Experiment2SecondaryR(r, tr, base, 0.10, 2)
	checkRun(t, tr, base, res.Random, policy.Combo{Primary: policy.KeyLog2Size, Secondary: policy.KeyRandom}.New(tr.Start), 2)
	k := 0
	for i, c := range policy.SecondaryCombos() {
		if c.Secondary == policy.KeyRandom {
			continue
		}
		checkRun(t, tr, base, res.Runs[k].Run, c.New(tr.Start), 2+uint64(i+1)*31337)
		k++
	}
	if k != len(res.Runs) {
		t.Fatalf("checked %d secondary runs, result has %d", k, len(res.Runs))
	}
}

func TestInterningClassics(t *testing.T) {
	r := DefaultRunner()
	tr := detTrace(t, "C", 7)
	base := Experiment1(tr, 1)
	res := ExperimentClassicsR(r, tr, base, 0.10, 2)
	pols := []policy.Policy{
		policy.NewFIFO(),
		policy.NewLRU(),
		policy.NewLFU(),
		policy.NewLRUMin(),
		policy.NewHyperG(),
		policy.NewPitkowRecker(tr.Start),
		policy.NewGDS1(),
		policy.NewGDSBytes(),
	}
	if len(pols) != len(res.Runs) {
		t.Fatalf("%d classics, result has %d runs", len(pols), len(res.Runs))
	}
	for i, pol := range pols {
		checkRun(t, tr, base, res.Runs[i], pol, 2+uint64(i)*104729)
	}
}
