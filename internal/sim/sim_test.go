package sim

import (
	"reflect"
	"strings"
	"testing"

	"webcache/internal/core"
	"webcache/internal/policy"
	"webcache/internal/trace"
	"webcache/internal/workload"
)

// dayTrace builds a trace with a fixed per-day request pattern: each day
// re-requests one popular document and one fresh document.
func dayTrace(days int) *trace.Trace {
	tr := &trace.Trace{Name: "synthetic", Start: 0}
	for d := 0; d < days; d++ {
		base := int64(d) * 86400
		tr.Requests = append(tr.Requests,
			trace.Request{Time: base + 10, URL: "http://s/hot.html", Status: 200, Size: 100, Type: trace.Text},
			trace.Request{Time: base + 20, URL: "http://s/day" + itoa(d) + ".html", Status: 200, Size: 50, Type: trace.Text},
		)
	}
	return tr
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestReplayDailyRates(t *testing.T) {
	tr := dayTrace(10)
	col := tr.Columnar()
	rates := ReplayColumnar(col, core.NewColumnar(core.Config{Capacity: 0, Seed: 1}, col), nil)
	raw := rates.HR.Raw()
	if len(raw) != 10 {
		t.Fatalf("%d recorded days, want 10", len(raw))
	}
	// Day 0: both requests miss -> HR 0. Later days: hot hits, fresh
	// misses -> HR 0.5.
	if raw[0].Value != 0 {
		t.Fatalf("day 0 HR %v", raw[0].Value)
	}
	for _, p := range raw[1:] {
		if p.Value != 0.5 {
			t.Fatalf("day %d HR %v, want 0.5", p.Day, p.Value)
		}
	}
	// WHR: day>0 hits 100 of 150 bytes.
	whr := rates.WHR.Raw()
	if v := whr[3].Value; v < 0.66 || v > 0.67 {
		t.Fatalf("WHR %v, want 2/3", v)
	}
}

func TestReplayOnDayEnd(t *testing.T) {
	tr := dayTrace(5)
	col := tr.Columnar()
	var boundaries []int
	ReplayColumnar(col, core.NewColumnar(core.Config{Capacity: 0, Seed: 1}, col), func(day int) { boundaries = append(boundaries, day) })
	if len(boundaries) != 5 {
		t.Fatalf("day-end callbacks: %v", boundaries)
	}
	if boundaries[0] != 0 || boundaries[4] != 4 {
		t.Fatalf("boundaries %v", boundaries)
	}
}

func TestExperiment1Accounting(t *testing.T) {
	tr := dayTrace(15)
	res := Experiment1(tr, 1)
	// MaxNeeded = hot(100) + 15 daily docs (50 each).
	if want := int64(100 + 15*50); res.MaxNeeded != want {
		t.Fatalf("MaxNeeded %d, want %d", res.MaxNeeded, want)
	}
	if res.AggHR <= 0.4 || res.AggHR >= 0.5 {
		t.Fatalf("AggHR %v (14 hits of 30 requests expected)", res.AggHR)
	}
	if res.Workload != "synthetic" {
		t.Fatalf("workload %q", res.Workload)
	}
}

func TestRunPolicyRatios(t *testing.T) {
	tr := dayTrace(20)
	base := Experiment1(tr, 1)
	// A cache big enough for everything must match the infinite bound.
	pol := policy.NewSorted([]policy.Key{policy.KeySize}, tr.Start)
	run := RunPolicy(tr, base, pol, base.MaxNeeded, 2, RunOptions{})
	if run.HRRatioMean < 0.999 || run.HRRatioMean > 1.001 {
		t.Fatalf("full-size cache HR ratio %v, want 1", run.HRRatioMean)
	}
	if run.Fraction != 1.0 {
		t.Fatalf("fraction %v", run.Fraction)
	}
}

func TestRunPolicySweep(t *testing.T) {
	tr := dayTrace(20)
	base := Experiment1(tr, 1)
	pol := policy.NewSorted([]policy.Key{policy.KeySize}, tr.Start)
	run := RunPolicy(tr, base, pol, 200, 3, RunOptions{Sweep: 0.25})
	// With a nightly sweep to 25% of 200 bytes, the 100-byte hot doc is
	// removed every night, so it misses every morning: HR 0.
	if run.Final.Hits != 0 {
		t.Fatalf("sweep variant still hit %d times", run.Final.Hits)
	}
}

func TestExperiment2RunsAllCombos(t *testing.T) {
	cfg := workload.C(5)
	cfg.Scale = 0.05
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Experiment1(tr, 1)
	res := Experiment2(tr, base, policy.AllCombos(), 0.10, 2)
	if len(res.Runs) != 36 {
		t.Fatalf("%d runs, want 36", len(res.Runs))
	}
	for _, run := range res.Runs {
		if run.Final.Requests == 0 {
			t.Fatalf("run %s processed nothing", run.Policy)
		}
		if run.Final.Used > run.Capacity {
			t.Fatalf("run %s exceeded capacity", run.Policy)
		}
	}
}

// TestExperiment2SizeWinsHR is the paper's headline on a reduced
// workload: SIZE must beat ATIME and ETIME on hit rate.
func TestExperiment2SizeWinsHR(t *testing.T) {
	cfg := workload.BL(9)
	cfg.Scale = 0.10
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Experiment1(tr, 1)
	res := Experiment2(tr, base, policy.PrimaryCombos(), 0.10, 2)
	byName := map[string]*PolicyRun{}
	for _, run := range res.Runs {
		byName[run.Policy] = run
	}
	size := byName["SIZE/RANDOM"].HRRatioMean
	atime := byName["ATIME/RANDOM"].HRRatioMean
	etime := byName["ETIME/RANDOM"].HRRatioMean
	nref := byName["NREF/RANDOM"].HRRatioMean
	if !(size > nref && nref > atime && atime > etime) {
		t.Fatalf("HR ranking violated: SIZE %.3f NREF %.3f ATIME %.3f ETIME %.3f",
			size, nref, atime, etime)
	}
}

func TestExperiment2Secondary(t *testing.T) {
	cfg := workload.G(11)
	cfg.Scale = 0.05
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Experiment1(tr, 1)
	res := Experiment2Secondary(tr, base, 0.10, 2)
	if len(res.Runs) != 5 {
		t.Fatalf("%d secondary runs, want 5", len(res.Runs))
	}
	for _, sr := range res.Runs {
		// The paper's conclusion: secondary keys are insignificant.
		if sr.WHRvsRandom < 0.80 || sr.WHRvsRandom > 1.25 {
			t.Errorf("secondary %s WHR vs random = %.3f; expected near 1", sr.Secondary, sr.WHRvsRandom)
		}
	}
}

func TestExperiment3L2AboveL1Misses(t *testing.T) {
	cfg := workload.C(13)
	cfg.Scale = 0.10
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Experiment1(tr, 1)
	res := Experiment3(tr, base, 0.10, 2)
	if res.MeanL2WHR <= 0 {
		t.Fatal("L2 WHR is zero; the second level never helped")
	}
	// The paper's observation: with SIZE in L1, the L2's WHR exceeds its
	// HR because the documents displaced to L2 are large.
	if res.MeanL2WHR <= res.MeanL2HR {
		t.Fatalf("L2 WHR %.3f <= L2 HR %.3f; displaced documents should be large",
			res.MeanL2WHR, res.MeanL2HR)
	}
	// Conservation: L1 hits + L2 hits <= total requests.
	if res.L1Final.Hits+res.L2Final.Hits > res.L1Final.Requests {
		t.Fatal("hit accounting exceeds request count")
	}
}

func TestExperiment4Partitions(t *testing.T) {
	cfg := workload.BR(17)
	cfg.Scale = 0.05
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Experiment1(tr, 1)
	res := Experiment4(tr, base, 0.10, 2)
	if len(res.Partitions) != 3 {
		t.Fatalf("%d partitions, want 3", len(res.Partitions))
	}
	shares := []float64{0.25, 0.50, 0.75}
	var prevAudio float64 = -1
	for i, p := range res.Partitions {
		if p.AudioShare != shares[i] {
			t.Fatalf("partition %d share %v", i, p.AudioShare)
		}
		if p.AggTotalWHR < 0 || p.AggTotalWHR > 1 {
			t.Fatalf("total WHR %v", p.AggTotalWHR)
		}
		// Audio WHR must not decrease as the audio partition grows.
		if p.AggAudioWHR+1e-9 < prevAudio {
			t.Fatalf("audio WHR decreased when its partition grew: %v -> %v", prevAudio, p.AggAudioWHR)
		}
		prevAudio = p.AggAudioWHR
	}
}

func TestRenderers(t *testing.T) {
	cfg := workload.C(19)
	cfg.Scale = 0.03
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Experiment1(tr, 1)
	e2 := Experiment2(tr, base, policy.PrimaryCombos(), 0.10, 2)
	for name, out := range map[string]string{
		"table1":    RenderTable1(),
		"table3":    RenderTable3(),
		"typemix":   RenderTypeMix(tr),
		"exp1":      RenderExp1(base, true),
		"exp2":      RenderExp2(e2),
		"exp2serie": RenderExp2Series(e2, "SIZE/RANDOM"),
		"exp2sec":   RenderExp2Secondary(Experiment2Secondary(tr, base, 0.10, 3)),
		"exp3":      RenderExp3(Experiment3(tr, base, 0.10, 4), true),
		"exp4":      RenderExp4(Experiment4(tr, base, 0.10, 5)),
	} {
		if len(strings.TrimSpace(out)) == 0 {
			t.Errorf("renderer %s produced nothing", name)
		}
	}
	if out := RenderExp2Series(e2, "NOPE"); !strings.Contains(out, "not in result") {
		t.Error("missing-policy series did not report absence")
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		500:     "500 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	}
	for n, want := range cases {
		if got := fmtBytes(n); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestExperiment5SharedL2(t *testing.T) {
	cfg := workload.BL(23)
	cfg.Scale = 0.05
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Experiment1(tr, 1)
	res := Experiment5(tr, base, 4, 0.10, 2)
	if res.Populations != 4 || len(res.Shared.PopL2HR) != 4 {
		t.Fatalf("population accounting: %+v", res)
	}
	// Sharing can only help: the shared L2 holds a superset of every
	// private L2's contents.
	if res.SharingGainHR < 0 || res.SharingGainWHR < 0 {
		t.Fatalf("sharing hurt: gain HR %.4f WHR %.4f", res.SharingGainHR, res.SharingGainWHR)
	}
	// With 185 clients split four ways over one document population,
	// commonality must be substantial (the paper's §5 conjecture).
	if res.Shared.CrossHitFraction < 0.3 {
		t.Fatalf("cross-population hit fraction only %.3f", res.Shared.CrossHitFraction)
	}
	if out := RenderExp5(res); !strings.Contains(out, "sharing gain") {
		t.Fatal("RenderExp5 output incomplete")
	}
}

func TestPopulationOfStable(t *testing.T) {
	a := populationOf("client7.world.example", 4)
	for i := 0; i < 10; i++ {
		if populationOf("client7.world.example", 4) != a {
			t.Fatal("population assignment not stable")
		}
	}
	if a < 0 || a >= 4 {
		t.Fatalf("population %d out of range", a)
	}
}

func TestExperiment6LatencyModel(t *testing.T) {
	m := DefaultNetModel()
	// RTT is deterministic and bounded.
	r1 := m.ServerRTT("s1.vt.edu")
	if r1 != m.ServerRTT("s1.vt.edu") {
		t.Fatal("ServerRTT not deterministic")
	}
	if r1 < m.MinRTT || r1 > m.MaxRTT {
		t.Fatalf("RTT %v outside [%v, %v]", r1, m.MinRTT, m.MaxRTT)
	}
	// Serving from cache is strictly cheaper than an origin fetch.
	if m.CacheServe(10000) >= m.OriginFetch("s1.vt.edu", 10000) {
		t.Fatal("cache serve not cheaper than origin fetch")
	}
	// Larger documents cost more.
	if m.OriginFetch("s1.vt.edu", 1000) >= m.OriginFetch("s1.vt.edu", 100000) {
		t.Fatal("origin fetch not monotone in size")
	}
}

func TestExperiment6Runs(t *testing.T) {
	cfg := workload.BL(31)
	cfg.Scale = 0.05
	tr, _, err := workload.GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := Experiment1(tr, 1)
	res, err := Experiment6(tr, base, []string{"SIZE", "LATENCY", "GD-Latency"}, 0.10, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("%d runs", len(res.Runs))
	}
	byName := map[string]*LatencyRun{}
	for _, run := range res.Runs {
		if run.SavedFraction < 0 || run.SavedFraction > 1 {
			t.Fatalf("%s saved fraction %v", run.Policy, run.SavedFraction)
		}
		if run.WithCache > run.NoCache {
			t.Fatalf("%s: cache made latency worse overall", run.Policy)
		}
		byName[run.Policy] = run
	}
	// The popularity-blind LATENCY key must lose to both SIZE and the
	// GreedyDual blend — the Experiment 6 finding.
	if byName["LATENCY"].SavedFraction >= byName["SIZE"].SavedFraction {
		t.Error("pure LATENCY key unexpectedly beat SIZE on latency saved")
	}
	if byName["LATENCY"].SavedFraction >= byName["GD-Latency"].SavedFraction {
		t.Error("pure LATENCY key unexpectedly beat GD-Latency")
	}
	if out := RenderExp6(res); !strings.Contains(out, "Latency saved") {
		t.Error("RenderExp6 incomplete")
	}
	if _, err := Experiment6(tr, base, []string{"BOGUS"}, 0.1, nil, 1); err == nil {
		t.Error("bad policy spec accepted")
	}
}

// TestExperiment1OutOfOrderLog replays a log whose lines a proxy wrote
// in completion order, crossing midnight out of time order: ReadCLF
// must hand Experiment1 the time-ordered trace (it would otherwise add
// day 0 after day 1 and panic), the same as the pre-sorted log's.
func TestExperiment1OutOfOrderLog(t *testing.T) {
	line := func(stamp, url string) string {
		return `c1 - - [` + stamp + ` +0000] "GET ` + url + ` HTTP/1.0" 200 100` + "\n"
	}
	l1 := line("17/Sep/1995:23:59:58", "http://s/a.gif")
	l2 := line("18/Sep/1995:00:00:01", "http://s/b.html")
	l3 := line("17/Sep/1995:23:59:59", "http://s/a.gif")
	l4 := line("18/Sep/1995:00:00:05", "http://s/b.html")
	exp1 := func(log string) *Exp1Result {
		raw, _, err := trace.ReadCLF(strings.NewReader(log), "log")
		if err != nil {
			t.Fatal(err)
		}
		valid, _ := trace.Validate(raw)
		return Experiment1(valid, 1)
	}
	got := exp1(l1 + l2 + l3 + l4)
	want := exp1(l1 + l3 + l2 + l4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("out-of-order log: %+v, want the sorted log's %+v", got, want)
	}
	if got.Final.Hits != 2 {
		t.Fatalf("%d hits, want 2", got.Final.Hits)
	}
}
