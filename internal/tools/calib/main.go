// Command calib prints the workload generators' emergent statistics
// next to the paper's published targets: valid requests, bytes
// transferred, MaxNeeded, infinite-cache hit rates and the Table 4 type
// mix. It is the tuning loop the calibration tests automate.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"webcache/internal/sim"
	"webcache/internal/trace"
	"webcache/internal/workload"
)

func main() {
	if err := run(os.Stdout, 42, 1.0); err != nil {
		log.Fatal(err)
	}
}

// run generates the five workloads at the given seed and scale and
// writes one block per workload to w. The targets are the paper's
// full-scale figures.
func run(w io.Writer, seed uint64, scale float64) error {
	targets := map[string]struct {
		maxNeeded float64 // MB
		reqs      int
		bytes     float64 // MB
	}{
		"U": {1400, 173384, 2190}, "G": {413, 46834, 610.92},
		"C": {221, 30316, 405.7}, "BR": {198, 180132, 9610}, "BL": {408, 53881, 644.55},
	}
	for _, cfg := range workload.All(seed, scale) {
		tr, vstats, err := workload.GenerateValidated(cfg)
		if err != nil {
			return fmt.Errorf("generating %s: %w", cfg.Name, err)
		}
		r := sim.Experiment1(tr, 7)
		t := targets[cfg.Name]
		fmt.Fprintf(w, "%-3s reqs=%d (want %d)  bytes=%.0fMB (want %.0f)  MaxNeeded=%.0fMB (want %.0f)  days=%d\n",
			cfg.Name, len(tr.Requests), t.reqs, float64(tr.TotalBytes())/1e6, t.bytes,
			float64(r.MaxNeeded)/1e6, t.maxNeeded, tr.Days())
		fmt.Fprintf(w, "    aggHR=%.1f%% aggWHR=%.1f%% meanDailyHR=%.1f%% meanDailyWHR=%.1f%%  szchg=%.2f%%\n",
			r.AggHR*100, r.AggWHR*100, r.MeanHR*100, r.MeanWHR*100, vstats.SizeChangeFraction()*100)
		// type mix
		var totB int64
		for i := range tr.Requests {
			totB += tr.Requests[i].Size
		}
		for dt := trace.DocType(0); dt < trace.NumDocTypes; dt++ {
			var nreq, nb int64
			for i := range tr.Requests {
				if tr.Requests[i].Type == dt {
					nreq++
					nb += tr.Requests[i].Size
				}
			}
			if nreq == 0 {
				continue
			}
			fmt.Fprintf(w, "    %-10s refs=%5.2f%% bytes=%5.2f%%\n", dt,
				100*float64(nreq)/float64(len(tr.Requests)), 100*float64(nb)/float64(totB))
		}
	}
	return nil
}
