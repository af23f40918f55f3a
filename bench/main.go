// Command bench is the repository's one end-to-end benchmark. It drives
// the simulator through the root webcache facade only, and the live side
// through the real cmd/proxy binary only, started as a child process in
// front of a stub origin this program owns. BENCHMARK.json at the root
// of the repository names its workloads and metrics; README.md in this
// directory says what each measures and why.
//
//	go run -C bench . -workload proxy-miss            # one workload, end-to-end metrics
//	go run -C bench . -workload proxy-miss -trace 1   # its per-layer metrics and span file
//	go run -C bench .                                 # every workload
//	go run -C bench . -repeat 2                       # acceptance: two sets, medians within bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name     string
	trace    string  // paper workload replayed through the proxy; "" runs the simulator sweep
	scale    float64 // share of the paper's trace volume
	fraction float64 // proxy capacity as a share of the trace's MaxNeeded
	openRate float64 // req/s of the open-loop diagnostic
	obs      bool    // also price the observability surfaces in the --trace 1 run
}

// workloads are sized so that a rep — one full pass over the same request
// sequence — takes one to two seconds on a two-core box, which puts six
// or more reps into a run and 22 or more samples beyond each rep's p99.
// README.md gives the reason for each.
var workloads = []workload{
	{name: "sim-sweep", scale: 0.5},
	{name: "proxy-hit", trace: "C", scale: 0.3, fraction: 1.0, openRate: 3000, obs: true},
	{name: "proxy-miss", trace: "BL", scale: 0.17, fraction: 0.04, openRate: 1500},
	{name: "proxy-large", trace: "BR", scale: 0.03, fraction: 0.10, openRate: 800},
}

// options are one invocation's settings.
type options struct {
	seed          uint64
	seconds       time.Duration // how long a run measures
	minReps       int           // reps are never fewer, however long they take
	setups        int           // set-ups per run; setup_s is their median
	quick         bool          // tiny inputs, one rep: a smoke test, not a measurement
	writeExpected bool
	root          string // the webcache module under test
	outDir        string // results, span files and the built proxy
}

// result is what one run of one workload measured.
type result struct {
	attempted, failed int
	firstFailure      string
	reps              reps               // per-rep values by metric
	samples           map[string]int     // raw measurements behind each per-rep value
	info              map[string]float64 // context that is not a metric
}

func newResult() *result {
	return &result{reps: reps{}, samples: map[string]int{}, info: map[string]float64{}}
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single place metric names, units and
// regression bounds are fixed.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name       = fs.String("workload", "", "workload to run (default: all of them)")
		seed       = fs.Uint64("seed", 42, "seed every input is generated from")
		seconds    = fs.Float64("seconds", 0, "how long a run measures (default: BENCHMARK.json's run_seconds)")
		traceMode  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the span file")
		repeat     = fs.Int("repeat", 1, "run every selected workload this many times and compare the sets' end-to-end medians against their bounds")
		quick      = fs.Bool("quick", false, "smoke test: scale 0.01, one rep, one set-up")
		allowDirty = fs.Bool("allow-dirty", false, "write result files even when the git tree has uncommitted changes")
		expected   = fs.Bool("write-expected", false, "sim-sweep: rewrite bench/expected/ for this seed from the first rep")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		return fail(err)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	o := options{
		seed:          *seed,
		seconds:       time.Duration(*seconds * float64(time.Second)),
		minReps:       5,
		setups:        3,
		quick:         *quick,
		writeExpected: *expected,
		root:          root,
		outDir:        filepath.Join(root, "bench", "out"),
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
	}
	if o.quick {
		o.seconds, o.minReps, o.setups = 0, 1, 1
		selected = append([]workload(nil), selected...)
		for i := range selected {
			selected[i].scale = 0.01
		}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fail(err)
	}
	prov := provenance(root)
	writeFiles := !prov.Dirty || *allowDirty
	if !writeFiles {
		fmt.Fprintln(stderr, "bench: git tree is dirty: printing results but writing no result files (-allow-dirty overrides)")
	}

	// Every exit path, signals included, goes through the deferred
	// closes of the functions below, which kill and reap the proxy child.
	// SIGPIPE is caught so that a closed stdout cannot end the process
	// before they run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer stop()

	metrics := spec.EndToEnd
	if *traceMode == 1 {
		metrics = spec.PerLayer
	}
	sets := make([]map[string]map[string]float64, *repeat) // set → workload → metric → value
	ok := true
	for set := range sets {
		sets[set] = map[string]map[string]float64{}
		for _, w := range selected {
			var res *result
			switch {
			case w.trace == "" && *traceMode == 1:
				res, err = simLayers(ctx, w, o)
			case w.trace == "":
				res, err = runSim(ctx, w, o)
			case *traceMode == 1:
				res, err = proxyLayers(ctx, w, o)
			default:
				res, err = runProxy(ctx, w, o)
			}
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			if *traceMode == 1 && res.attempted > 0 {
				res.reps.add("error_rate", float64(res.failed)/float64(res.attempted))
			}
			doc, err := report(w, o, prov, metrics, res, *traceMode == 0)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.name, err))
			}
			if writeFiles {
				path := filepath.Join(o.outDir, fmt.Sprintf("result-%s.seed%d.trace%d.json", w.name, o.seed, *traceMode))
				if err := writeJSON(path, doc); err != nil {
					return fail(err)
				}
			}
			if !doc.Correct {
				ok = false
				fmt.Fprintf(stderr, "bench: %s: %d of %d checks failed, first: %s\n", w.name, res.failed, res.attempted, res.firstFailure)
			}
			sets[set][w.name] = map[string]float64{}
			for _, m := range metrics {
				sets[set][w.name][m.Name] = doc.Metrics[m.Name].Value
			}
			// The contract line: one JSON object, last on stdout for
			// a single-workload run.
			line, err := json.Marshal(contractLine{doc.Correct, res.attempted, res.failed, doc.Metrics})
			if err != nil {
				return fail(err)
			}
			if len(selected) > 1 || *repeat > 1 {
				fmt.Fprintf(stdout, "%s (set %d): ", w.name, set+1)
			}
			if _, err := fmt.Fprintf(stdout, "%s\n", line); err != nil {
				return fail(err)
			}
		}
	}
	if *repeat > 1 && !compareSets(stdout, spec.EndToEnd, selected, sets) {
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}

// reported is one metric as printed: the median over reps.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the object the benchmark contract asks for.
type contractLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]reported `json:"metrics"`
}

// resultDoc is a result file: the contract line plus where the numbers
// came from and how much they varied.
type resultDoc struct {
	Workload   string              `json:"workload"`
	Seed       uint64              `json:"seed"`
	Seconds    float64             `json:"seconds"`
	Quick      bool                `json:"quick,omitempty"`
	Provenance provenanceDoc       `json:"provenance"`
	Correct    bool                `json:"correct"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	FirstFail  string              `json:"first_failure,omitempty"`
	Metrics    map[string]reported `json:"metrics"`
	Spread     map[string]summary  `json:"spread"`
	Info       map[string]float64  `json:"info,omitempty"`
}

// report turns a run's per-rep values into the printed metrics. An
// end-to-end metric the run did not measure is an error; a per-layer
// metric that does not apply to the workload reads 0.
func report(w workload, o options, prov provenanceDoc, metrics []metricSpec, res *result, mustHave bool) (*resultDoc, error) {
	doc := &resultDoc{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds.Seconds(), Quick: o.quick, Provenance: prov,
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted, Failed: res.failed, FirstFail: res.firstFailure,
		Metrics: map[string]reported{}, Spread: map[string]summary{}, Info: res.info,
	}
	known := map[string]bool{}
	for _, m := range metrics {
		known[m.Name] = true
		vals := res.reps[m.Name]
		if len(vals) == 0 && mustHave {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		sum := summarize(vals)
		sum.Samples = res.samples[m.Name]
		doc.Metrics[m.Name] = reported{Value: sum.Median, Unit: m.Unit}
		if len(vals) > 0 {
			doc.Spread[m.Name] = sum
		}
	}
	for name := range res.reps {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is measured but not in BENCHMARK.json", name)
		}
	}
	return doc, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// compareSets prints, per workload and end-to-end metric, how far each
// later set's value is from the first set's in the metric's worse
// direction, as a share of the first, against the metric's bound. It
// reports whether every pair stayed within bounds.
func compareSets(out io.Writer, metrics []metricSpec, selected []workload, sets []map[string]map[string]float64) bool {
	ok := true
	fmt.Fprintf(out, "\n%-12s %-16s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set n", "worse by", "bound")
	for _, w := range selected {
		for _, m := range metrics {
			first := sets[0][w.name][m.Name]
			for _, later := range sets[1:] {
				v := later[w.name][m.Name]
				worse := (v - first) / first
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := ""
				if worse > m.Bound {
					verdict, ok = "  BREACH", false
				}
				fmt.Fprintf(out, "%-12s %-16s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n", w.name, m.Name, first, v, 100*worse, 100*m.Bound, verdict)
			}
		}
	}
	return ok
}

// provenanceDoc says where a result came from.
type provenanceDoc struct {
	GitRev     string `json:"git_rev"` // "none" outside a git checkout
	Dirty      bool   `json:"dirty"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os_arch"`
	Conns      int    `json:"closed_loop_connections"`
	Time       string `json:"time"`
}

func provenance(root string) provenanceDoc {
	p := provenanceDoc{
		GitRev: "none", NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), CPUModel: "unknown",
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH, Conns: conns(),
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	// Only a checkout whose top level is this module counts: a copy of
	// the files inside some other repository has no revision of its own.
	if top, err := git("rev-parse", "--show-toplevel"); err == nil && sameDir(top, root) {
		if rev, err := git("rev-parse", "HEAD"); err == nil {
			p.GitRev = rev
		}
		if status, err := git("status", "--porcelain"); err == nil {
			p.Dirty = status != ""
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

func sameDir(a, b string) bool {
	ra, err1 := filepath.EvalSymlinks(a)
	rb, err2 := filepath.EvalSymlinks(b)
	return err1 == nil && err2 == nil && ra == rb
}
