// Command benchreplay measures the single-replay hot path on the
// paper's 36-policy Experiment 2 sweep and records the result in a
// machine-readable trajectory (BENCH_replay.json at the repo root, one
// JSON array entry per recorded run), so the engine's ns-per-request
// history is tracked PR over PR.
//
// It times the same sweep five times in one process:
//
//   - baseline: the pre-optimization engine, reconstructed through the
//     ablation switches — generic key-loop comparators
//     (policy.DisableCompiled), per-insert entry allocation and no
//     capacity pre-sizing (core.DisableAllocOpts), per-replay day
//     recomputation (sim.DisableDayIndex), pairwise-swap heap sifts
//     (pqueue.DisableHoleSift), and the string-indexed entry map
//     (sim.DisableInterning);
//   - nointern: the compiled/alloc-free engine with only interning
//     disabled — the PR-2 endpoint, isolating the interned columnar
//     layer's contribution;
//   - nostructural: the interned engine with only the structural policy
//     backends disabled (policy.DisableStructural) — every combo back
//     on the generic heap, isolating the recency-list/size-bucket
//     layer's contribution;
//   - optimized: everything on — compiled comparators over cached
//     derived keys, entry recycling, pre-sized heaps, hole-based sifts,
//     the shared day index, and map-free ID-indexed replay over the
//     shared interned columnar trace view;
//   - observed: the optimized engine with the observability layer
//     attached (sim.Observer: cache event hooks, the event-trace ring,
//     pprof replay spans, JSONL snapshot emission) — the obs-on vs
//     obs-off ablation that prices the enabled path, recorded as
//     obs_overhead_pct.
//
// All modes replay every combination with identical seeds, and the tool
// fails if any run's results differ between modes — the timing harness
// doubles as an end-to-end equivalence check for the compiled layers
// and a proof that observation does not perturb simulation results.
//
// Usage:
//
//	benchreplay                       # measure and print
//	benchreplay -out BENCH_replay.json        # measure and append to the trajectory
//	benchreplay -compare BENCH_replay.json    # measure and print delta vs the last entry
//	benchreplay -diff BENCH_replay.json       # print delta between the last two entries (no run)
//	benchreplay -diff BENCH_replay.json -threshold 15  # also fail on a >15% optimized regression
//	benchreplay -check BENCH_replay.json      # schema-check the trajectory and exit (no run)
//	benchreplay -metrics-out m.jsonl          # also keep the observed mode's JSONL stream
//
// After the full-sweep modes it re-times the structural subset — the
// combos the capability check actually routes off the heap — with the
// structural backends on and off, pricing the layer where it applies
// (structural_subset_* fields).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"webcache/internal/core"
	"webcache/internal/obs"
	"webcache/internal/policy"
	"webcache/internal/pqueue"
	"webcache/internal/sim"
	"webcache/internal/trace"
	"webcache/internal/workload"
)

// Run is one measurement in the BENCH_replay.json trajectory.
type Run struct {
	Benchmark         string  `json:"benchmark"`
	GitRev            string  `json:"git_rev"`
	Workload          string  `json:"workload"`
	Scale             float64 `json:"scale"`
	Fraction          float64 `json:"fraction"`
	Policies          int     `json:"policies"`
	RequestsPerReplay int     `json:"requests_per_replay"`
	Reps              int     `json:"reps"`
	BaselineNsPerReq  float64 `json:"baseline_ns_per_request"`
	NoInternNsPerReq  float64 `json:"nointern_ns_per_request,omitempty"`
	OptimizedNsPerReq float64 `json:"optimized_ns_per_request"`
	ObservedNsPerReq  float64 `json:"observed_ns_per_request,omitempty"`
	Speedup           float64 `json:"speedup"`
	InterningSpeedup  float64 `json:"interning_speedup,omitempty"`
	ObsOverheadPct    float64 `json:"obs_overhead_pct,omitempty"`

	// The structural-backend ablation: the full sweep with every combo
	// forced back onto the heap, and the subset sweep over just the
	// combos the capability check routes to a structural backend —
	// where the layer's win is actually priced.
	NoStructuralNsPerReq float64 `json:"nostructural_ns_per_request,omitempty"`
	StructuralSpeedup    float64 `json:"structural_speedup,omitempty"`
	SubsetPolicies       int     `json:"structural_subset_policies,omitempty"`
	SubsetHeapNsPerReq   float64 `json:"structural_subset_nostructural_ns_per_request,omitempty"`
	SubsetNsPerReq       float64 `json:"structural_subset_ns_per_request,omitempty"`
	SubsetSpeedup        float64 `json:"structural_subset_speedup,omitempty"`

	IdenticalOutput bool                `json:"identical_output"`
	Ablations       map[string][]string `json:"ablations,omitempty"`
	Generated       string              `json:"generated"`
}

// modeAblations documents which switches each timed mode sets; it is
// recorded verbatim in every trajectory entry.
var modeAblations = map[string][]string{
	"baseline": {
		"policy.DisableCompiled", "core.DisableAllocOpts",
		"sim.DisableDayIndex", "pqueue.DisableHoleSift", "sim.DisableInterning",
		"policy.DisableStructural",
	},
	"nointern":     {"sim.DisableInterning"},
	"nostructural": {"policy.DisableStructural"},
	"optimized":    {},
	// Observability is off-by-default (sim.Observer == nil), so the
	// obs-on side of the ablation is the mode that *attaches* it.
	"observed": {"sim.Observer attached (cache hooks, event ring, pprof spans, JSONL snapshots)"},
}

func main() {
	var (
		wl         = flag.String("workload", "BL", "workload: U, G, C, BR, BL")
		scale      = flag.Float64("scale", 0.05, "synthetic workload scale")
		fraction   = flag.Float64("fraction", 0.10, "cache size as a fraction of MaxNeeded")
		seed       = flag.Uint64("seed", 42, "workload generation seed")
		reps       = flag.Int("reps", 3, "repetitions per mode; the fastest is kept")
		out        = flag.String("out", "", "append the result to this trajectory file")
		compare    = flag.String("compare", "", "measure and print the delta vs this trajectory's last entry")
		diff       = flag.String("diff", "", "print the delta between this trajectory's last two entries, without measuring")
		threshold  = flag.Float64("threshold", 0, "with -diff: exit non-zero if optimized ns/request regressed by more than this percent between the last two entries (0 = report only)")
		checkFlag  = flag.String("check", "", "schema-check this trajectory file and exit (no measurement)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measurement (all modes) to this file")
		metricsOut = flag.String("metrics-out", "", "write the observed mode's final JSONL metric stream to this file")
	)
	flag.Parse()

	var err error
	if *checkFlag != "" {
		err = checkTrajectory(*checkFlag)
	} else if *diff != "" {
		err = printTrajectoryDiff(*diff, *threshold)
	} else {
		err = run(*wl, *scale, *fraction, *seed, *reps, *out, *compare, *cpuprofile, *metricsOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreplay:", err)
		os.Exit(1)
	}
}

func run(wl string, scale, fraction float64, seed uint64, reps int, out, compare, cpuprofile, metricsOut string) error {
	if reps < 1 {
		reps = 1
	}
	cfg, err := workload.ByName(wl, seed)
	if err != nil {
		return err
	}
	cfg.Scale = scale
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		return err
	}
	base := sim.Experiment1(tr, seed+1)
	combos := policy.AllCombos()
	// Build the shared structures outside the timed region: the day
	// index and the interned columnar view are per-trace, decoded once.
	tr.DayIndex()
	tr.Columnar()

	fmt.Printf("benchreplay: %s scale %g (%d requests), %d policies at %g×MaxNeeded, %d reps\n",
		tr.Name, scale, len(tr.Requests), len(combos), fraction, reps)

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	// Interleave the four modes rep by rep, keeping the fastest rep of
	// each, so machine-load drift during the run lands on all sides of
	// the ratios instead of skewing one.
	runner := sim.NewRunner(sim.RunnerConfig{Workers: 1})
	type mode struct {
		legacy, nointern, nostructural, observed bool
		best                                     time.Duration
		runs                                     []*sim.PolicyRun
	}
	modes := []*mode{
		{legacy: true, nointern: true, nostructural: true, best: maxDuration}, // baseline
		{legacy: false, nointern: true, best: maxDuration},                    // nointern (PR-2 engine)
		{legacy: false, nostructural: true, best: maxDuration},                // heap fallback everywhere
		{legacy: false, best: maxDuration},                                    // optimized
		{legacy: false, observed: true, best: maxDuration},
	}
	var metricsFile *os.File
	if metricsOut != "" {
		metricsFile, err = os.Create(metricsOut)
		if err != nil {
			return err
		}
		defer metricsFile.Close()
	}
	for r := 0; r < reps; r++ {
		for _, m := range modes {
			var mw io.Writer
			if m.observed {
				// Every observed rep pays for JSONL encoding; only the
				// final rep's stream is kept when -metrics-out is set.
				mw = io.Discard
				if metricsFile != nil && r == reps-1 {
					mw = metricsFile
				}
			}
			d, runs := sweepOnce(runner, tr, base, combos, fraction, seed, m.legacy, m.nointern, m.nostructural, mw)
			if d < m.best {
				m.best = d
			}
			m.runs = runs
		}
	}
	total := float64(len(combos) * len(tr.Requests))
	baseNs := float64(modes[0].best.Nanoseconds()) / total
	nointernNs := float64(modes[1].best.Nanoseconds()) / total
	nostructNs := float64(modes[2].best.Nanoseconds()) / total
	optNs := float64(modes[3].best.Nanoseconds()) / total
	obsNs := float64(modes[4].best.Nanoseconds()) / total

	identical := true
	for _, m := range modes[:len(modes)-1] {
		identical = identical && reflect.DeepEqual(m.runs, modes[3].runs)
	}
	identical = identical && reflect.DeepEqual(modes[4].runs, modes[3].runs)
	if !identical {
		return fmt.Errorf("sweep results differ between modes — an ablation layer changed behavior")
	}

	// Re-time just the structural subset — the combos whose capability
	// check actually leaves the heap — with the backends on and off, so
	// the trajectory prices the layer where it applies instead of
	// diluting it across the heap-bound stragglers. Same interleaving
	// and equivalence discipline as the full-sweep modes.
	var subset []policy.Combo
	for _, c := range combos {
		if c.New(tr.Start).Backend() != "heap" {
			subset = append(subset, c)
		}
	}
	type subMode struct {
		nostructural bool
		best         time.Duration
		runs         []*sim.PolicyRun
	}
	subModes := []*subMode{
		{nostructural: true, best: maxDuration},
		{best: maxDuration},
	}
	for r := 0; r < reps; r++ {
		for _, m := range subModes {
			d, runs := sweepOnce(runner, tr, base, subset, fraction, seed, false, false, m.nostructural, nil)
			if d < m.best {
				m.best = d
			}
			m.runs = runs
		}
	}
	if !reflect.DeepEqual(subModes[0].runs, subModes[1].runs) {
		return fmt.Errorf("structural subset results differ between backends")
	}
	subTotal := float64(len(subset) * len(tr.Requests))
	subHeapNs := float64(subModes[0].best.Nanoseconds()) / subTotal
	subNs := float64(subModes[1].best.Nanoseconds()) / subTotal

	res := Run{
		Benchmark:         "exp2-36policy-replay",
		GitRev:            gitRev(),
		Workload:          tr.Name,
		Scale:             scale,
		Fraction:          fraction,
		Policies:          len(combos),
		RequestsPerReplay: len(tr.Requests),
		Reps:              reps,
		BaselineNsPerReq:  baseNs,
		NoInternNsPerReq:  nointernNs,
		OptimizedNsPerReq: optNs,
		ObservedNsPerReq:  obsNs,
		Speedup:           baseNs / optNs,
		InterningSpeedup:  nointernNs / optNs,
		ObsOverheadPct:    (obsNs - optNs) / optNs * 100,
		IdenticalOutput:   identical,

		NoStructuralNsPerReq: nostructNs,
		StructuralSpeedup:    nostructNs / optNs,
		SubsetPolicies:       len(subset),
		SubsetHeapNsPerReq:   subHeapNs,
		SubsetNsPerReq:       subNs,
		SubsetSpeedup:        subHeapNs / subNs,

		Ablations: modeAblations,
		Generated: time.Now().UTC().Format(time.RFC3339),
	}

	fmt.Printf("  baseline  (all ablation switches set):      %8.1f ns/request\n", res.BaselineNsPerReq)
	fmt.Printf("  nointern  (compiled engine, string map):    %8.1f ns/request\n", res.NoInternNsPerReq)
	fmt.Printf("  nostructural (every combo on the heap):     %8.1f ns/request\n", res.NoStructuralNsPerReq)
	fmt.Printf("  optimized (interned columnar, map-free):    %8.1f ns/request\n", res.OptimizedNsPerReq)
	fmt.Printf("  observed  (optimized + obs hooks/snapshots):%8.1f ns/request\n", res.ObservedNsPerReq)
	fmt.Printf("  speedup: %.2f× vs baseline, %.2f× vs nointern  (outputs identical: %v)\n",
		res.Speedup, res.InterningSpeedup, res.IdenticalOutput)
	fmt.Printf("  observability overhead when enabled: %+.1f%%\n", res.ObsOverheadPct)
	fmt.Printf("  structural subset (%d policies off the heap): %8.1f → %8.1f ns/request (%.2f× structural)\n",
		res.SubsetPolicies, res.SubsetHeapNsPerReq, res.SubsetNsPerReq, res.SubsetSpeedup)
	if metricsFile != nil {
		fmt.Printf("  observed metrics stream: %s\n", metricsOut)
	}

	if compare != "" {
		if err := printDelta(compare, res); err != nil {
			return err
		}
	}
	if out != "" {
		if err := appendRun(out, res); err != nil {
			return err
		}
		fmt.Printf("  appended to %s\n", out)
	}
	return nil
}

const maxDuration = time.Duration(1<<63 - 1)

// sweepOnce times one execution of the full combo sweep in the given
// mode, returning the wall time and the run results for cross-mode
// comparison. A non-nil metrics writer attaches the observability
// layer for the duration of the sweep (the "observed" mode), streaming
// its JSONL records there; the end-of-run summary is written outside
// the timed region.
func sweepOnce(runner *sim.Runner, tr *trace.Trace, base *sim.Exp1Result, combos []policy.Combo, fraction float64, seed uint64, legacy, nointern, nostructural bool, metrics io.Writer) (time.Duration, []*sim.PolicyRun) {
	policy.DisableCompiled = legacy
	core.DisableAllocOpts = legacy
	sim.DisableDayIndex = legacy
	pqueue.DisableHoleSift = legacy
	sim.DisableInterning = nointern
	policy.DisableStructural = nostructural
	defer func() {
		policy.DisableCompiled = false
		core.DisableAllocOpts = false
		sim.DisableDayIndex = false
		pqueue.DisableHoleSift = false
		sim.DisableInterning = false
		policy.DisableStructural = false
	}()
	if metrics != nil {
		o := obs.New(obs.Options{
			Metrics: metrics,
			Meta: map[string]any{
				"tool":     "benchreplay",
				"git_rev":  obs.GitRev(),
				"workload": tr.Name,
				"fraction": fraction,
				"policies": len(combos),
			},
			// The event ring rides along so the observed mode prices the
			// full enabled path: counter adds plus one ring slot store
			// per cache event — what cmd/proxy -admin and websim -listen
			// actually run.
			Ring: obs.NewEventRing(1 << 16),
		})
		o.SetExperiment("2all")
		sim.Observer = o
		defer func() {
			if err := sim.CloseObserver(runner); err != nil {
				fmt.Fprintln(os.Stderr, "benchreplay: writing metrics summary:", err)
			}
		}()
	}

	// Settle garbage from the previous rep so no mode pays for
	// another's allocations.
	runtime.GC()
	start := time.Now()
	res := sim.Experiment2R(runner, tr, base, combos, fraction, seed+2)
	return time.Since(start), res.Runs
}

// gitRev identifies the measured revision ("-dirty" when the tree has
// uncommitted changes), "unknown" outside a work tree.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		rev += "-dirty"
	}
	return rev
}

// readTrajectory parses a trajectory file. A legacy file holding a
// single run object (the pre-trajectory schema) is read as a one-entry
// trajectory, so appending migrates it in place.
func readTrajectory(path string) ([]Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []Run
	if err := json.Unmarshal(data, &runs); err == nil {
		return runs, nil
	}
	var single Run
	if err := json.Unmarshal(data, &single); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return []Run{single}, nil
}

// appendRun adds res to the trajectory at path, creating it if absent.
func appendRun(path string, res Run) error {
	var runs []Run
	if _, err := os.Stat(path); err == nil {
		runs, err = readTrajectory(path)
		if err != nil {
			return err
		}
	}
	runs = append(runs, res)
	data, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printDelta reports a fresh measurement against the trajectory's last
// recorded entry.
func printDelta(path string, cur Run) error {
	runs, err := readTrajectory(path)
	if err != nil {
		return fmt.Errorf("no saved trajectory to compare against: %w", err)
	}
	if len(runs) == 0 {
		return fmt.Errorf("%s holds no runs", path)
	}
	prev := runs[len(runs)-1]
	if prev.OptimizedNsPerReq <= 0 {
		return fmt.Errorf("%s's last entry has no optimized_ns_per_request", path)
	}
	delta := (cur.OptimizedNsPerReq - prev.OptimizedNsPerReq) / prev.OptimizedNsPerReq * 100
	fmt.Printf("  vs %s (%s, %s): %8.1f → %8.1f ns/request (%+.1f%%)\n",
		path, prev.GitRev, prev.Generated, prev.OptimizedNsPerReq, cur.OptimizedNsPerReq, delta)
	return nil
}

// printTrajectoryDiff reports the delta between the last two recorded
// entries without running a measurement. A trajectory with fewer than
// two entries is not an error — there is simply nothing to diff yet —
// so the tool says so and exits cleanly (make bench-compare runs
// before the first bench-baseline on a fresh clone). A positive
// threshold turns the report into a regression gate: the diff fails if
// the newest entry's optimized ns/request is more than threshold
// percent above the previous one's (CI runs -threshold 15, so a
// recorded hot-path regression cannot land silently).
func printTrajectoryDiff(path string, threshold float64) error {
	runs, err := readTrajectory(path)
	if err != nil {
		return err
	}
	if len(runs) < 2 {
		fmt.Printf("%s holds %d recorded run(s); two are needed to diff.\n", path, len(runs))
		fmt.Println("Run 'make bench-baseline' to append a measurement, then compare again.")
		return nil
	}
	a, b := runs[len(runs)-2], runs[len(runs)-1]
	if a.OptimizedNsPerReq <= 0 {
		return fmt.Errorf("%s's second-to-last entry has no optimized_ns_per_request", path)
	}
	delta := (b.OptimizedNsPerReq - a.OptimizedNsPerReq) / a.OptimizedNsPerReq * 100
	fmt.Printf("%s: last two entries\n", path)
	fmt.Printf("  %-10s %-20s %8s %8s %8s\n", "rev", "generated", "base", "opt", "speedup")
	for _, r := range []Run{a, b} {
		fmt.Printf("  %-10s %-20s %8.1f %8.1f %7.2f×\n",
			r.GitRev, r.Generated, r.BaselineNsPerReq, r.OptimizedNsPerReq, r.Speedup)
	}
	fmt.Printf("  optimized ns/request: %8.1f → %8.1f (%+.1f%%)\n",
		a.OptimizedNsPerReq, b.OptimizedNsPerReq, delta)
	if threshold > 0 && delta > threshold {
		return fmt.Errorf("optimized ns/request regressed %.1f%% (threshold %.1f%%)", delta, threshold)
	}
	return nil
}

// checkTrajectory validates a replay trajectory's schema: every entry
// must carry the core measurement fields, optional mode fields must
// travel together (a lone speedup with no measurement, or vice versa,
// means a writer bug), and recorded equivalence must never have been
// false. Old entries that predate a mode are fine — wholly absent
// optional groups are skipped.
func checkTrajectory(path string) error {
	runs, err := readTrajectory(path)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		return fmt.Errorf("%s holds no runs", path)
	}
	for i, r := range runs {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("%s entry %d (%s): %s", path, i, r.GitRev, fmt.Sprintf(format, args...))
		}
		// git_rev may be empty in the earliest recorded entries.
		if r.Benchmark == "" || r.Generated == "" {
			return fail("missing benchmark/generated")
		}
		if r.Workload == "" || r.Policies < 1 || r.RequestsPerReplay < 1 || r.Reps < 1 {
			return fail("implausible sweep shape: workload %q, %d policies, %d requests, %d reps",
				r.Workload, r.Policies, r.RequestsPerReplay, r.Reps)
		}
		if r.BaselineNsPerReq <= 0 || r.OptimizedNsPerReq <= 0 || r.Speedup <= 0 {
			return fail("missing core measurements (baseline %.1f, optimized %.1f, speedup %.2f)",
				r.BaselineNsPerReq, r.OptimizedNsPerReq, r.Speedup)
		}
		if !r.IdenticalOutput {
			return fail("identical_output is false — an ablation mode diverged")
		}
		if (r.NoInternNsPerReq > 0) != (r.InterningSpeedup > 0) {
			return fail("nointern fields do not travel together")
		}
		// The nostructural mode's fields: all or none.
		structSet := r.NoStructuralNsPerReq != 0 || r.StructuralSpeedup != 0 ||
			r.SubsetPolicies != 0 || r.SubsetHeapNsPerReq != 0 ||
			r.SubsetNsPerReq != 0 || r.SubsetSpeedup != 0
		if structSet {
			if r.NoStructuralNsPerReq <= 0 || r.StructuralSpeedup <= 0 {
				return fail("nostructural mode fields incomplete (%.1f ns, %.2f×)",
					r.NoStructuralNsPerReq, r.StructuralSpeedup)
			}
			if r.SubsetPolicies < 1 || r.SubsetHeapNsPerReq <= 0 || r.SubsetNsPerReq <= 0 || r.SubsetSpeedup <= 0 {
				return fail("structural subset fields incomplete (%d policies, %.1f → %.1f ns, %.2f×)",
					r.SubsetPolicies, r.SubsetHeapNsPerReq, r.SubsetNsPerReq, r.SubsetSpeedup)
			}
			if r.SubsetPolicies > r.Policies {
				return fail("structural subset (%d) larger than the sweep (%d)", r.SubsetPolicies, r.Policies)
			}
		}
	}
	fmt.Printf("%s: schema ok (%d entries)\n", path, len(runs))
	return nil
}
