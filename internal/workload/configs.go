package workload

import (
	"fmt"
	"strings"

	"webcache/internal/trace"
)

// The five workload configurations below reproduce §2 and Table 4 of the
// paper. RefShare/ByteShare columns are copied from Table 4. The
// NewDocProb values (α_t) are solved by hand from two constraints per
// workload and recorded with their derivations:
//
//	Σ_t α_t·refShare_t  = m        (first-reference fraction ≈ 1 − max HR)
//	Σ_t α_t·byteShare_t = β        (MaxNeeded / TotalBytes)
//
// so that an infinite cache reaches the paper's maximum hit rates and
// needs roughly the paper's MaxNeeded bytes (§4.1: U 1400 MB, G 413 MB,
// C 221 MB, BR 198 MB, BL 408 MB).

// Paper trace start dates (midnight UTC).
const (
	startU  = 796608000 // 31 Mar 1995
	startG  = 790560000 // 20 Jan 1995
	startC  = 790214400 // 16 Jan 1995
	startBR = 811296000 // 17 Sep 1995
	startBL = 811296000 // 17 Sep 1995
)

// U returns the Undergrad workload: ~30 lab workstations, 190 days,
// 173,384 valid accesses, 2.19 GB (§2). Calendar: spring semester, a
// break dip near day 65, and a fall-semester surge (to ~5000 req/day)
// with new users from day 155 (§4.1, Fig. 3).
//
// Note: Table 4's published U %Bytes column sums to 128.23%; shares are
// used as relative weights (normalized), and the α values are solved
// against the normalized shares: β = 1400/2190 = 0.639, m ≈ 0.53.
// With α(A)=α(V)=0.95, α(Unknown)=0.75, α(CGI)=0.80:
// graphics/text α = (0.639 − 0.325)/0.612 ≈ 0.51, nudged to 0.46 so the
// fall-surge NewDocBoost still lands the paper's ~50% maximum HR.
func U(seed uint64) Config {
	return Config{
		Name: "U", Seed: seed,
		Days: 190, Requests: 173384, TotalBytes: 2_190_000_000,
		Types: []TypeSpec{
			{Type: trace.Graphics, RefShare: 0.5300, ByteShare: 0.4743, NewDocProb: 0.46, SizeSigma: 1.7},
			{Type: trace.Text, RefShare: 0.4146, ByteShare: 0.3105, NewDocProb: 0.46, SizeSigma: 1.7},
			{Type: trace.Audio, RefShare: 0.0009, ByteShare: 0.0315, NewDocProb: 0.95, SizeSigma: 0.5, RecencyBias: 0.8},
			{Type: trace.Video, RefShare: 0.0019, ByteShare: 0.1829, NewDocProb: 0.95, SizeSigma: 0.6, RecencyBias: 0.8},
			{Type: trace.CGI, RefShare: 0.0013, ByteShare: 0.0008, NewDocProb: 0.80, SizeSigma: 1.0},
			{Type: trace.Unknown, RefShare: 0.0512, ByteShare: 0.2823, NewDocProb: 0.75, SizeSigma: 1.8, RecencyBias: 0.6},
		},
		ZipfS: 0.85, UniformMix: 0.25,
		Servers: 900, ServerZipfS: 1.0,
		Domain: "vt.edu", Clients: 30,
		StartDay: startU,
		DayWeight: func(d int) float64 {
			w := weekdayWeight(d, 0.45)
			switch {
			case d >= 60 && d <= 75: // break between spring and summer
				w *= 0.35
			case d >= 155: // fall semester surge
				w *= 2.6
			}
			return w
		},
		NewDocBoost: func(d int) float64 {
			switch {
			case d >= 60 && d <= 75:
				return 1.30 // transient users during the break
			case d >= 155:
				return 1.25 // new users in the fall
			}
			return 1
		},
		SizeChangeProb: 0.010, ZeroSizeProb: 0.003, NoiseFrac: 0.05,
	}
}

// G returns the Graduate workload: one time-shared client, ≥25 users,
// spring 1995, 46,834 valid accesses, 610.92 MB. Hit rates jump near the
// end of the semester (Fig. 4) — modelled by halving NewDocProb then.
//
// α solve: m = 0.52, β = 413/610.92 = 0.676.
// With α(A)=0.90, α(V)=0.97, α(U)=0.95, α(CGI)=0.80:
// graphics/text α = (0.676 − 0.3647)/0.6195 ≈ 0.50, nudged to 0.54 to
// offset the end-of-semester NewDocBoost reduction.
func G(seed uint64) Config {
	return Config{
		Name: "G", Seed: seed,
		Days: 79, Requests: 46834, TotalBytes: 610_920_000,
		Types: []TypeSpec{
			{Type: trace.Graphics, RefShare: 0.5145, ByteShare: 0.3539, NewDocProb: 0.54, SizeSigma: 1.7},
			{Type: trace.Text, RefShare: 0.4523, ByteShare: 0.2656, NewDocProb: 0.54, SizeSigma: 1.7},
			{Type: trace.Audio, RefShare: 0.0007, ByteShare: 0.0147, NewDocProb: 0.90, SizeSigma: 0.5, RecencyBias: 0.8},
			{Type: trace.Video, RefShare: 0.0035, ByteShare: 0.2577, NewDocProb: 0.97, SizeSigma: 0.6, RecencyBias: 0.8},
			{Type: trace.CGI, RefShare: 0.0015, ByteShare: 0.0012, NewDocProb: 0.80, SizeSigma: 1.0},
			{Type: trace.Unknown, RefShare: 0.0276, ByteShare: 0.1058, NewDocProb: 0.95, SizeSigma: 1.8, RecencyBias: 0.6},
		},
		ZipfS: 0.85, UniformMix: 0.25,
		Servers: 700, ServerZipfS: 1.0,
		Domain: "cs.vt.edu", Clients: 25,
		StartDay:  startG,
		DayWeight: func(d int) float64 { return weekdayWeight(d, 0.55) },
		NewDocBoost: func(d int) float64 {
			if d >= 70 {
				return 0.5 // end-of-semester review of familiar pages
			}
			return 1
		},
		SizeChangeProb: 0.008, ZeroSizeProb: 0.003, NoiseFrac: 0.05,
	}
}

// C returns the Classroom workload: 26 workstations, four multimedia
// class sessions per week in spring 1995, 30,316 valid accesses,
// 405.7 MB. Requests occur only on class days; hit rates start high,
// sag, and rise again before the final exam (Fig. 5).
//
// α solve: m = 0.50, β = 221/405.7 = 0.545.
// With α(A)=0.60, α(CGI)=0.80, α(U)=0.70 fixed, solving the two-by-two
// system for x = α(graphics/text) and y = α(video):
// 0.9684x + 0.0034y = 0.480, 0.5505x + 0.3915y = 0.507 ⇒ x≈0.49, y≈0.60.
func C(seed uint64) Config {
	return Config{
		Name: "C", Seed: seed,
		Days: 100, Requests: 30316, TotalBytes: 405_700_000,
		Types: []TypeSpec{
			{Type: trace.Graphics, RefShare: 0.4078, ByteShare: 0.3542, NewDocProb: 0.49, SizeSigma: 1.7},
			{Type: trace.Text, RefShare: 0.5606, ByteShare: 0.1963, NewDocProb: 0.49, SizeSigma: 1.7},
			{Type: trace.Audio, RefShare: 0.0021, ByteShare: 0.0293, NewDocProb: 0.60, SizeSigma: 0.5, RecencyBias: 0.8},
			{Type: trace.Video, RefShare: 0.0034, ByteShare: 0.3915, NewDocProb: 0.60, SizeSigma: 0.6, RecencyBias: 0.8},
			{Type: trace.CGI, RefShare: 0.0012, ByteShare: 0.0003, NewDocProb: 0.80, SizeSigma: 1.0},
			{Type: trace.Unknown, RefShare: 0.0249, ByteShare: 0.0284, NewDocProb: 0.70, SizeSigma: 1.8},
		},
		ZipfS: 0.85, UniformMix: 0.25,
		Servers: 150, ServerZipfS: 1.0,
		Domain: "vt.edu", Clients: 26,
		StartDay: startC,
		DayWeight: func(d int) float64 {
			// Class meets Monday–Thursday; occasional field trips drop a
			// class day deterministically.
			dow := d % 7
			if dow > 3 {
				return 0
			}
			if d%23 == 2 { // field trip
				return 0
			}
			return 1
		},
		NewDocBoost: func(d int) float64 {
			switch {
			case d < 10: // instructor walks the class through fixed pages
				return 0.55
			case d >= 85: // final-exam review of earlier material
				return 0.40
			}
			return 1.15
		},
		SizeChangeProb: 0.006, ZeroSizeProb: 0.003, NoiseFrac: 0.05,
	}
}

// BR returns the Backbone-Remote workload: every request from outside
// .cs.vt.edu to servers inside it, 38 days, 180,132 valid accesses,
// 9.61 GB — 88% of the bytes are audio from a single popular site (§1,
// Table 4; video's 0.00% refs row is folded into Unknown).
//
// α solve: m ≈ 0.021, β = 198 MB / 9.61 GB = 0.0206.
// α(audio) = 0.0216 gives ≈100 unique audio files of ≈1.8 MB (≈182 MB),
// and α(graphics/text) = 0.02 covers the remaining unique bytes.
func BR(seed uint64) Config {
	return Config{
		Name: "BR", Seed: seed,
		Days: 38, Requests: 180132, TotalBytes: 9_610_000_000,
		Types: []TypeSpec{
			{Type: trace.Graphics, RefShare: 0.6166, ByteShare: 0.0809, NewDocProb: 0.020, SizeSigma: 1.2},
			{Type: trace.Text, RefShare: 0.3411, ByteShare: 0.0401, NewDocProb: 0.020, SizeSigma: 1.4},
			{Type: trace.Audio, RefShare: 0.0257, ByteShare: 0.8778, NewDocProb: 0.0216, SizeSigma: 0.25},
			{Type: trace.CGI, RefShare: 0.0022, ByteShare: 0.0001, NewDocProb: 0.30, SizeSigma: 1.0},
			{Type: trace.Unknown, RefShare: 0.0144, ByteShare: 0.0011, NewDocProb: 0.05, SizeSigma: 1.5},
		},
		ZipfS: 1.00, UniformMix: 0.20,
		Servers: 12, ServerZipfS: 0.9, AudioServer: true,
		Domain: "cs.vt.edu", Clients: 6000,
		StartDay:       startBR,
		DayWeight:      func(d int) float64 { return weekdayWeight(d, 0.75) },
		SizeChangeProb: 0.005, ZeroSizeProb: 0.003, NoiseFrac: 0.05,
		Extended: true,
	}
}

// BL returns the Backbone-Local workload: every request from inside the
// CS department to any server in the world, 37 days, 53,881 valid
// accesses, 644.55 MB, 2543 servers, ~36k unique URLs (§2.2, Figs. 1-2).
//
// α solve: m = 0.58, β = 408/644.55 = 0.633.
// With α(A)=0.85, α(V)=0.90, α(U)=0.80, α(CGI)=0.90:
// graphics/text α = (0.633 − 0.208)/0.7556 ≈ 0.56.
func BL(seed uint64) Config {
	return Config{
		Name: "BL", Seed: seed,
		Days: 37, Requests: 53881, TotalBytes: 644_550_000,
		Types: []TypeSpec{
			{Type: trace.Graphics, RefShare: 0.5113, ByteShare: 0.4626, NewDocProb: 0.56, SizeSigma: 1.7},
			{Type: trace.Text, RefShare: 0.4338, ByteShare: 0.2930, NewDocProb: 0.56, SizeSigma: 1.7},
			{Type: trace.Audio, RefShare: 0.0025, ByteShare: 0.1791, NewDocProb: 0.85, SizeSigma: 0.5, RecencyBias: 0.8},
			{Type: trace.Video, RefShare: 0.0004, ByteShare: 0.0358, NewDocProb: 0.90, SizeSigma: 0.6, RecencyBias: 0.8},
			{Type: trace.CGI, RefShare: 0.0095, ByteShare: 0.0005, NewDocProb: 0.90, SizeSigma: 1.0},
			{Type: trace.Unknown, RefShare: 0.0425, ByteShare: 0.0289, NewDocProb: 0.80, SizeSigma: 1.8, RecencyBias: 0.5},
		},
		ZipfS: 0.85, UniformMix: 0.25,
		Servers: 2543, ServerZipfS: 1.0,
		Domain: "world.example", Clients: 185,
		StartDay:       startBL,
		DayWeight:      func(d int) float64 { return weekdayWeight(d, 0.6) },
		SizeChangeProb: 0.013, ZeroSizeProb: 0.003, NoiseFrac: 0.05,
		Extended: true,
	}
}

// weekdayWeight gives weekdays weight 1 and weekends the given factor.
// Day 0 is taken as a Monday.
func weekdayWeight(d int, weekend float64) float64 {
	if dow := d % 7; dow >= 5 {
		return weekend
	}
	return 1
}

// Names lists the five paper workloads in the paper's order.
var Names = []string{"U", "G", "C", "BR", "BL"}

// ByName returns the named workload config ("U", "G", "C", "BR", "BL").
func ByName(name string, seed uint64) (Config, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "U":
		return U(seed), nil
	case "G":
		return G(seed), nil
	case "C":
		return C(seed), nil
	case "BR":
		return BR(seed), nil
	case "BL":
		return BL(seed), nil
	}
	return Config{}, fmt.Errorf("workload: unknown workload %q (want U, G, C, BR or BL)", name)
}

// All returns the five paper workloads at the given seed and scale.
func All(seed uint64, scale float64) []Config {
	cfgs := make([]Config, 0, len(Names))
	for i, n := range Names {
		cfg, _ := ByName(n, seed+uint64(i))
		cfg.Scale = scale
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}
