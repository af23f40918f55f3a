// Command analyze characterizes a Web request trace the way §2.2 of the
// paper characterizes its workloads (the role the authors' Chitra95
// toolset played): file-type mix, popularity concentration, document
// size distribution and temporal locality — the data behind Figures 1,
// 2, 13 and 14.
//
// Usage:
//
//	analyze -trace access.log            # a real common-log-format file
//	analyze -workload BL -scale 0.5      # a synthetic workload
package main

import (
	"flag"
	"fmt"
	"os"

	"webcache/internal/analysis"
	"webcache/internal/trace"
	"webcache/internal/workload"
)

func main() {
	var (
		traceFile = flag.String("trace", "", "common-log-format file to analyze")
		wl        = flag.String("workload", "", "synthetic workload to analyze (U, G, C, BR, BL)")
		scale     = flag.Float64("scale", 1.0, "synthetic workload scale")
		seed      = flag.Uint64("seed", 42, "synthetic workload seed")
	)
	flag.Parse()

	tr, err := load(*traceFile, *wl, *scale, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "analyze:", err)
		os.Exit(1)
	}
	fmt.Print(analysis.Analyze(tr).Render())
}

func load(traceFile, wl string, scale float64, seed uint64) (*trace.Trace, error) {
	switch {
	case traceFile != "":
		raw, rstats, err := trace.ReadCLFFile(traceFile, traceFile)
		if err != nil {
			return nil, err
		}
		if rstats.Malformed > 0 {
			fmt.Fprintf(os.Stderr, "analyze: skipped %d malformed lines\n", rstats.Malformed)
		}
		valid, vstats := trace.ValidateOwned(raw)
		fmt.Fprintf(os.Stderr, "analyze: %d of %d lines valid\n", vstats.Kept, vstats.Input)
		return valid, nil
	case wl != "":
		cfg, err := workload.ByName(wl, seed)
		if err != nil {
			return nil, err
		}
		cfg.Scale = scale
		tr, _, err := workload.GenerateValidated(cfg)
		return tr, err
	}
	return nil, fmt.Errorf("need -trace or -workload")
}
