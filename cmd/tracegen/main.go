// Command tracegen emits one of the paper's synthetic workloads as an
// (extended) common-log-format file, including the invalid noise lines a
// real log contains — feed the output to websim -trace or httpfilter
// consumers.
//
// Usage:
//
//	tracegen -workload BL -scale 0.1 -seed 42 > bl.log
//	tracegen -config mylab.json > lab.log
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"webcache/internal/obs"
	"webcache/internal/trace"
	"webcache/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "BL", "workload: U, G, C, BR, BL")
		config   = flag.String("config", "", "JSON workload definition (overrides -workload)")
		scale    = flag.Float64("scale", 1.0, "volume scale (1.0 = paper volume)")
		seed     = flag.Uint64("seed", 42, "generation seed")
		extended = flag.Bool("extended", true, "append Last-Modified extended fields where present")
		validate = flag.Bool("validated", false, "apply §1.1 validation before writing (drop invalid lines)")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("tracegen", obs.BuildInfo())
		return
	}

	if err := run(*wl, *config, *scale, *seed, *extended, *validate); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(wl, config string, scale float64, seed uint64, extended, validate bool) error {
	var cfg workload.Config
	var err error
	if config != "" {
		f, err := os.Open(config)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg, err = workload.FromJSON(f)
		if err != nil {
			return err
		}
	} else {
		cfg, err = workload.ByName(wl, seed)
		if err != nil {
			return err
		}
	}
	cfg.Scale = scale
	tr, err := workload.Generate(cfg)
	if err != nil {
		return err
	}
	if validate {
		var stats *trace.ValidateStats
		tr, stats = trace.ValidateOwned(tr)
		fmt.Fprintf(os.Stderr, "tracegen: %d of %d lines valid\n", stats.Kept, stats.Input)
	}
	w := bufio.NewWriterSize(os.Stdout, 1<<20)
	if err := trace.WriteCLF(w, tr, extended); err != nil {
		return err
	}
	return w.Flush()
}
