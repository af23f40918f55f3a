// Command websim runs the paper's experiments on the synthetic workloads
// (or on a real common-log-format trace) and prints the corresponding
// tables and figure series.
//
// Usage:
//
//	websim -exp 1 -workload BL                 # Experiment 1 (Figs. 3-7)
//	websim -exp 2 -workload U -fraction 0.1    # Experiment 2 (Figs. 8-12)
//	websim -exp 2s -workload G                 # secondary keys (Fig. 15)
//	websim -exp 2all -workload BL              # the full 36-policy design
//	websim -exp classics -workload BR          # FIFO/LRU/LFU/LRU-MIN/...
//	websim -exp 3 -workload BR                 # two-level cache (Figs. 16-18)
//	websim -exp 4 -workload BR                 # partitioned cache (Figs. 19-20)
//	websim -exp 5 -workload BL                 # shared L2 across client groups (§5)
//	websim -exp 6 -workload BL                 # latency saved per policy (§1/§5)
//	websim -exp tables                         # Tables 1 and 3
//	websim -exp 4 -trace access.log            # run on a real CLF trace
//
// -scale shrinks the synthetic workloads for quick runs; -series prints
// the full per-day figure series instead of summaries. -workers fans
// the independent replays of an experiment across a goroutine pool
// (default GOMAXPROCS); results are identical for any worker count.
// -cpuprofile and -memprofile write pprof profiles of the run, the
// inputs to hot-path work on the replay engine.
//
// Observability (internal/obs; overhead only when enabled, zero when
// off):
//
//	websim -exp 2all -metrics-out exp2.jsonl   # per-replay metric snapshots (JSONL)
//	websim -exp 2all -progress                 # live replays-completed/ETA on stderr
//	websim -version                            # build/revision stamp
//
// -metrics-out streams one JSONL record per replay (hits, misses,
// evictions, evicted bytes, heap peak, occupancy high water,
// ns/request) between an attributable header (git_rev, flags) and an
// end-of-run summary (runner speedup, queue wait, aggregate event
// counters). With observability on, replays also run under pprof
// labels (policy=, workload=, experiment=), so -cpuprofile samples
// attribute per policy. Replays run without cache event hooks either
// way: an observed replay pays only for its per-replay snapshot.
// Simulation output on stdout is byte-identical with observability on
// or off.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"webcache/internal/obs"
	"webcache/internal/policy"
	"webcache/internal/sim"
	"webcache/internal/stats"
	"webcache/internal/trace"
	"webcache/internal/workload"
)

func main() {
	var (
		exp        = flag.String("exp", "1", "experiment: 1, 2, 2s, 2all, classics, 3, 4, 5, 6, table4, tables, all")
		wl         = flag.String("workload", "BL", "workload: U, G, C, BR, BL")
		traceFile  = flag.String("trace", "", "run on this common-log-format file instead of a synthetic workload")
		fraction   = flag.Float64("fraction", 0.10, "cache size as a fraction of MaxNeeded")
		scale      = flag.Float64("scale", 1.0, "synthetic workload scale (1.0 = paper volume)")
		seed       = flag.Uint64("seed", 42, "workload generation seed")
		series     = flag.Bool("series", false, "print full per-day series where applicable")
		plot       = flag.Bool("plot", false, "draw ASCII figures for per-day series")
		workers    = flag.Int("workers", 0, "parallel replay workers (0 = GOMAXPROCS); results are identical for any value")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof)")
		metricsOut = flag.String("metrics-out", "", "stream per-replay metric snapshots to this file as JSONL")
		progress   = flag.Bool("progress", false, "show a live replays-completed/ETA ticker on stderr")
		version    = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("websim", obs.BuildInfo())
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "websim:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "websim:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	err := run(os.Stdout, runConfig{
		exp: *exp, wl: *wl, traceFile: *traceFile,
		fraction: *fraction, scale: *scale, seed: *seed, workers: *workers,
		series: *series, plot: *plot,
		metricsOut: *metricsOut, progress: *progress,
	})

	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "websim:", merr)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so the profile shows live objects
		if merr := pprof.WriteHeapProfile(f); merr != nil {
			fmt.Fprintln(os.Stderr, "websim:", merr)
			os.Exit(1)
		}
		f.Close()
	}

	if err != nil {
		if *cpuprofile != "" {
			pprof.StopCPUProfile()
		}
		fmt.Fprintln(os.Stderr, "websim:", err)
		os.Exit(1)
	}
}

// runConfig carries one invocation's flags; the golden tests drive run
// directly with it.
type runConfig struct {
	exp, wl, traceFile string
	fraction, scale    float64
	seed               uint64
	workers            int
	series, plot       bool
	// metricsOut streams per-replay JSONL snapshots to this file;
	// progress renders a live ticker on progressW (os.Stderr when nil —
	// tests inject a buffer). Either enables the observability layer.
	metricsOut string
	progress   bool
	progressW  io.Writer
}

func run(out io.Writer, rc runConfig) error {
	runner := sim.NewRunner(sim.RunnerConfig{Workers: rc.workers})
	if rc.metricsOut != "" || rc.progress {
		stop, err := enableObservability(runner, rc)
		if err != nil {
			return err
		}
		defer stop()
	}
	exp, fraction, seed := rc.exp, rc.fraction, rc.seed
	if exp == "tables" {
		fmt.Fprintln(out, "Table 1 — sorting keys")
		fmt.Fprintln(out, sim.RenderTable1())
		fmt.Fprintln(out, "Table 3 — literature policies")
		fmt.Fprintln(out, sim.RenderTable3())
		return nil
	}

	tr, err := loadTrace(rc.wl, rc.traceFile, rc.scale, seed)
	if err != nil {
		return err
	}

	if exp == "table4" {
		fmt.Fprintf(out, "Table 4 — file type distribution, workload %s\n", tr.Name)
		fmt.Fprintln(out, sim.RenderTypeMix(tr))
		return nil
	}

	base := sim.Experiment1(tr, seed+1)
	switch exp {
	case "1":
		fmt.Fprintln(out, sim.RenderExp1(base, rc.series))
		if rc.plot {
			fmt.Fprintln(out, stats.PlotPercentSeries("Figs. 3-7: infinite-cache hit rates, 7-day moving average (%)",
				map[string][]stats.DayPoint{
					"HR":  base.Rates.HR.MovingAverage(),
					"WHR": base.Rates.WHR.MovingAverage(),
				}))
		}
	case "2":
		res := sim.Experiment2R(runner, tr, base, policy.PrimaryCombos(), fraction, seed+2)
		fmt.Fprintln(out, sim.RenderExp2(res))
		if rc.plot {
			named := map[string][]stats.DayPoint{}
			for _, run := range res.Runs {
				switch run.Policy {
				case "SIZE/RANDOM", "ETIME/RANDOM", "ATIME/RANDOM", "NREF/RANDOM":
					named[run.Policy] = run.Rates.HR.RatioTo(base.Rates.HR)
				}
			}
			fmt.Fprintln(out, stats.PlotPercentSeries("Figs. 8-12: % of infinite-cache HR", named))
		}
		if rc.series {
			for _, name := range []string{"SIZE/RANDOM", "ETIME/RANDOM", "ATIME/RANDOM", "NREF/RANDOM"} {
				fmt.Fprintln(out, sim.RenderExp2Series(res, name))
			}
		}
	case "2all":
		res := sim.Experiment2R(runner, tr, base, policy.AllCombos(), fraction, seed+2)
		fmt.Fprintln(out, sim.RenderExp2(res))
	case "2s":
		res := sim.Experiment2SecondaryR(runner, tr, base, fraction, seed+3)
		fmt.Fprintln(out, sim.RenderExp2Secondary(res))
	case "classics":
		res := sim.ExperimentClassicsR(runner, tr, base, fraction, seed+4)
		fmt.Fprintln(out, sim.RenderExp2(res))
	case "3":
		res3 := sim.Experiment3(tr, base, fraction, seed+5)
		fmt.Fprintln(out, sim.RenderExp3(res3, rc.series))
		if rc.plot {
			fmt.Fprintln(out, stats.PlotPercentSeries("Figs. 16-18: second-level cache rates over all requests (%)",
				map[string][]stats.DayPoint{
					"L2 HR":  res3.L2HR.MovingAverage(),
					"L2 WHR": res3.L2WHR.MovingAverage(),
				}))
		}
	case "4":
		fmt.Fprintln(out, sim.RenderExp4(sim.Experiment4R(runner, tr, base, fraction, seed+6)))
	case "5":
		fmt.Fprintln(out, sim.RenderExp5(sim.Experiment5R(runner, tr, base, 4, fraction, seed+7)))
	case "6":
		res, err := sim.Experiment6R(runner, tr, base,
			[]string{"SIZE", "LATENCY", "LRU", "NREF", "GD-Size(1)", "GD-Latency"},
			fraction, nil, seed+8)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, sim.RenderExp6(res))
	case "all":
		fmt.Fprintln(out, sim.RenderExp1(base, false))
		fmt.Fprintln(out, sim.RenderExp2(sim.Experiment2R(runner, tr, base, policy.PrimaryCombos(), fraction, seed+2)))
		fmt.Fprintln(out, sim.RenderExp2Secondary(sim.Experiment2SecondaryR(runner, tr, base, fraction, seed+3)))
		fmt.Fprintln(out, sim.RenderExp3(sim.Experiment3(tr, base, fraction, seed+5), false))
		fmt.Fprintln(out, sim.RenderExp4(sim.Experiment4R(runner, tr, base, fraction, seed+6)))
		fmt.Fprintln(out, sim.RenderExp5(sim.Experiment5R(runner, tr, base, 4, fraction, seed+7)))
		res6, err := sim.Experiment6R(runner, tr, base,
			[]string{"SIZE", "LATENCY", "LRU", "NREF", "GD-Size(1)", "GD-Latency"},
			fraction, nil, seed+8)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, sim.RenderExp6(res6))
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// enableObservability wires the sim-wide observer from the run's
// flags: a JSONL metric stream (header stamped with git_rev and the
// invocation), a stderr progress ticker, or both. The returned stop
// function emits the end-of-run summary, detaches the observer, and
// closes the metrics file.
func enableObservability(runner *sim.Runner, rc runConfig) (stop func(), err error) {
	var f *os.File
	var mw io.Writer
	if rc.metricsOut != "" {
		f, err = os.Create(rc.metricsOut)
		if err != nil {
			return nil, err
		}
		mw = f
	}
	var prog *obs.Progress
	if rc.progress {
		pw := rc.progressW
		if pw == nil {
			pw = os.Stderr
		}
		prog = obs.NewProgress(pw, "websim", time.Second)
		prog.Start()
	}
	o := obs.New(obs.Options{
		Metrics: mw,
		Meta: map[string]any{
			"tool":     "websim",
			"git_rev":  obs.GitRev(),
			"exp":      rc.exp,
			"workload": rc.wl,
			"fraction": rc.fraction,
			"scale":    rc.scale,
			"seed":     rc.seed,
			"workers":  runner.Workers(),
		},
		Progress: prog,
	})
	o.SetExperiment(rc.exp)
	sim.Observer = o
	return func() {
		if err := sim.CloseObserver(runner); err != nil {
			fmt.Fprintln(os.Stderr, "websim: writing metrics summary:", err)
		}
		if f != nil {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "websim: closing metrics file:", err)
			}
		}
	}, nil
}

// loadTrace returns the validated trace from a file or a freshly
// generated synthetic workload.
func loadTrace(wl, traceFile string, scale float64, seed uint64) (*trace.Trace, error) {
	if traceFile != "" {
		raw, stats, err := trace.ReadCLFFile(traceFile, traceFile)
		if err != nil {
			return nil, err
		}
		if stats.Malformed > 0 {
			fmt.Fprintf(os.Stderr, "websim: skipped %d malformed lines (first: %v)\n",
				stats.Malformed, stats.FirstError)
		}
		valid, vstats := trace.ValidateOwned(raw)
		fmt.Fprintf(os.Stderr, "websim: %d of %d log lines valid (%.1f%% size changes among re-references)\n",
			vstats.Kept, vstats.Input, 100*vstats.SizeChangeFraction())
		return valid, nil
	}
	cfg, err := workload.ByName(wl, seed)
	if err != nil {
		return nil, err
	}
	cfg.Scale = scale
	tr, _, err := workload.GenerateValidated(cfg)
	return tr, err
}
