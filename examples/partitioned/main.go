// Partitioned reproduces Experiment 4 on the Backbone-Remote workload:
// should a cache whose byte traffic is dominated by audio (88% in the
// paper) be split into audio and non-audio partitions? The example
// sweeps the audio partition over 1/4, 1/2 and 3/4 of a 10%-of-MaxNeeded
// cache and prints each class's weighted hit rate over all requests,
// exactly the measure of Figs. 19-20.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"webcache"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	tr, _, err := webcache.GenerateWorkload("BR", 42, 0.50)
	if err != nil {
		return err
	}
	bound := webcache.MaxHitRates(tr, 1)
	total := bound.MaxNeeded / 10
	fmt.Fprintf(w, "Backbone-Remote: %d requests, %.2f GB transferred, MaxNeeded %.0f MB\n",
		len(tr.Requests), float64(tr.TotalBytes())/1e9, float64(bound.MaxNeeded)/1e6)
	fmt.Fprintf(w, "partitioned cache budget: %.1f MB\n\n", float64(total)/1e6)

	res := webcache.PartitionStudy(tr, bound, 0.10, 3)
	fmt.Fprintf(w, "%-12s %12s %15s %11s\n", "audio share", "audio WHR%", "non-audio WHR%", "total WHR%")
	bestShare, bestWHR := 0.0, -1.0
	for _, p := range res.Partitions {
		fmt.Fprintf(w, "%-12.0f %12.2f %15.2f %11.2f\n",
			100*p.AudioShare, 100*p.AggAudioWHR, 100*p.AggNonAudioWHR, 100*p.AggTotalWHR)
		if p.AggTotalWHR > bestWHR {
			bestWHR, bestShare = p.AggTotalWHR, p.AudioShare
		}
	}
	fmt.Fprintf(w, "\ninfinite-cache reference: audio WHR %.2f%%, non-audio WHR %.2f%%\n",
		100*res.InfiniteAudioWHR.Mean(), 100*res.InfiniteNonAudioWHR.Mean())
	fmt.Fprintf(w, "best overall split measured here: %.0f%% audio\n", 100*bestShare)
	fmt.Fprintln(w, "(the paper concludes an equal split maximizes overall WHR; at reduced")
	fmt.Fprintln(w, "scale each audio file is a large fraction of its partition, which")
	fmt.Fprintln(w, "shifts the optimum — run at -scale 1.0 via cmd/websim for the full view)")
	return nil
}
