package sim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"webcache/internal/stats"
	"webcache/internal/workload"
)

// exp34Digests pins, per workload, the FNV-64a digests of every daily
// point that Experiment 3 (L1 HR, L1 WHR, L2 HR, L2 WHR) and
// Experiment 4 (the infinite cache's audio and non-audio WHR, then each
// partition share's) produce at seed 42, scale 0.2 and 10 % of
// MaxNeeded. Scale 0.2 is the smallest at which every partition split
// hits audio bytes on both workloads. The goldens print only means and
// aggregates of these series (BL's audio WHR rounds to 0.00 there), so
// these digests are what holds the daily series still; they must never
// move without a deliberate model change.
var exp34Digests = map[string][2]uint64{
	"BR": {0x6afb39fadd06bbd2, 0x1026fe820dac050b},
	"BL": {0x2bb40e9a1f6e559d, 0xc0ecd2e4c22814c4},
}

// seriesDigest hashes each series' length and every (day, value bit
// pattern) point, in order.
func seriesDigest(series ...*stats.DailySeries) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range series {
		pts := s.Raw()
		put(uint64(len(pts)))
		for _, p := range pts {
			put(uint64(p.Day))
			put(math.Float64bits(p.Value))
		}
	}
	return h.Sum64()
}

func TestExperiment34DailySeriesPinned(t *testing.T) {
	r := NewRunner(RunnerConfig{Workers: 2})
	for _, wl := range []string{"BR", "BL"} {
		cfg, err := workload.ByName(wl, 42)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scale = 0.2
		tr, _, err := workload.GenerateValidated(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base := Experiment1(tr, 1)

		e3 := Experiment3(tr, base, 0.10, 5)
		got3 := seriesDigest(e3.L1HR, e3.L1WHR, e3.L2HR, e3.L2WHR)

		e4 := Experiment4R(r, tr, base, 0.10, 6)
		s4 := []*stats.DailySeries{e4.InfiniteAudioWHR, e4.InfiniteNonAudioWHR}
		for _, p := range e4.Partitions {
			s4 = append(s4, p.AudioWHR, p.NonAudioWHR)
		}
		got4 := seriesDigest(s4...)

		want := exp34Digests[wl]
		if got3 != want[0] {
			t.Errorf("%s: Experiment 3 daily series digest %#x, want %#x", wl, got3, want[0])
		}
		if got4 != want[1] {
			t.Errorf("%s: Experiment 4 daily series digest %#x, want %#x", wl, got4, want[1])
		}
	}
}
