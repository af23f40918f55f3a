// Policycompare reproduces the spirit of the paper's Experiment 2 on the
// Classroom workload: every sorting key of Table 1 (plus the literature
// policies of Table 3 and the post-paper GD-Size baseline) competes at a
// cache of 10% of MaxNeeded, and the ranking is printed with the paper's
// ratio-to-infinite measure.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"webcache"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	tr, _, err := webcache.GenerateWorkload("C", 42, 0.25)
	if err != nil {
		return err
	}
	bound := webcache.MaxHitRates(tr, 1)
	capacity := bound.MaxNeeded / 10
	fmt.Fprintf(w, "Classroom workload: %d requests, MaxNeeded %.1f MB, cache %.1f MB\n\n",
		len(tr.Requests), float64(bound.MaxNeeded)/1e6, float64(capacity)/1e6)

	specs := []string{
		"SIZE", "LOG2SIZE", "ETIME", "ATIME", "DAY(ATIME)", "NREF",
		"FIFO", "LRU", "LFU", "LRU-MIN", "Hyper-G", "Pitkow/Recker",
		"GD-Size(1)",
	}
	type row struct {
		name    string
		hr, whr float64
	}
	var rows []row
	for _, spec := range specs {
		pol, err := webcache.NewPolicy(spec, tr.Start)
		if err != nil {
			return err
		}
		cache := webcache.NewCache(webcache.CacheConfig{Capacity: capacity, Policy: pol, Seed: 9})
		for i := range tr.Requests {
			cache.Access(&tr.Requests[i])
		}
		st := cache.Stats()
		rows = append(rows, row{name: spec, hr: st.HitRate(), whr: st.WeightedHitRate()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].hr > rows[j].hr })

	fmt.Fprintf(w, "%-15s %8s %8s %10s\n", "policy", "HR%", "WHR%", "% of max HR")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %8.1f %8.1f %10.0f\n",
			r.name, 100*r.hr, 100*r.whr, 100*r.hr/bound.AggHR)
	}
	fmt.Fprintln(w, "\nThe paper's ranking — SIZE first, NREF second, ATIME (LRU) third,")
	fmt.Fprintln(w, "ETIME (FIFO) last — should be visible above; LOG2SIZE and LRU-MIN")
	fmt.Fprintln(w, "track SIZE closely.")
	return nil
}
