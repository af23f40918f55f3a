package workload

import (
	"math"
	"runtime"
	"testing"
	"time"

	"webcache/internal/sim"
	"webcache/internal/trace"
)

// genValid generates and validates a workload at the given scale.
func genValid(t *testing.T, cfg Config, scale float64) (*trace.Trace, *trace.ValidateStats) {
	t.Helper()
	cfg.Scale = scale
	tr, stats, err := GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, stats
}

func TestDeterminism(t *testing.T) {
	a, _ := genValid(t, BL(7), 0.02)
	b, _ := genValid(t, BL(7), 0.02)
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs:\n%+v\n%+v", i, a.Requests[i], b.Requests[i])
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, _ := genValid(t, BL(7), 0.02)
	b, _ := genValid(t, BL(8), 0.02)
	if len(a.Requests) == len(b.Requests) {
		same := true
		for i := range a.Requests {
			if a.Requests[i].URL != b.Requests[i].URL {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestTimestampsNondecreasing(t *testing.T) {
	tr, _ := genValid(t, U(3), 0.02)
	for i := 1; i < len(tr.Requests); i++ {
		if tr.Requests[i].Time < tr.Requests[i-1].Time {
			t.Fatalf("request %d time %d < previous %d", i, tr.Requests[i].Time, tr.Requests[i-1].Time)
		}
	}
}

func TestTypeConsistentWithURL(t *testing.T) {
	tr, _ := genValid(t, G(4), 0.02)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if got := trace.ClassifyURL(r.URL); got != r.Type {
			t.Fatalf("request %d: URL %q classifies as %v but carries type %v", i, r.URL, got, r.Type)
		}
	}
}

func TestScaleControlsVolume(t *testing.T) {
	small, _ := genValid(t, C(5), 0.05)
	large, _ := genValid(t, C(5), 0.10)
	ratio := float64(len(large.Requests)) / float64(len(small.Requests))
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("doubling scale changed volume by %.2f×, want ~2×", ratio)
	}
}

func TestRequestCountNearTarget(t *testing.T) {
	for _, cfg := range All(11, 0.2) {
		tr, _ := genValid(t, cfg, 0.2)
		want := float64(cfg.Requests) * 0.2
		got := float64(len(tr.Requests))
		if math.Abs(got-want) > want*0.05 {
			t.Errorf("%s: %d valid requests, want ~%.0f", cfg.Name, len(tr.Requests), want)
		}
	}
}

// TestTypeMixMatchesTable4 checks the reference shares against the
// paper's Table 4 within two percentage points.
func TestTypeMixMatchesTable4(t *testing.T) {
	for _, cfg := range All(13, 0.2) {
		tr, _ := genValid(t, cfg, 0.2)
		var counts [trace.NumDocTypes]int
		for i := range tr.Requests {
			counts[tr.Requests[i].Type]++
		}
		for _, spec := range cfg.Types {
			got := float64(counts[spec.Type]) / float64(len(tr.Requests))
			if math.Abs(got-spec.RefShare) > 0.02 {
				t.Errorf("%s %v: ref share %.4f, want %.4f±0.02", cfg.Name, spec.Type, got, spec.RefShare)
			}
		}
	}
}

// TestByteMixMatchesTable4 checks byte shares (normalized). Byte shares
// are much noisier than reference shares: at reduced scale a rare type's
// whole byte volume comes from a catalog of a few dozen documents, so
// the tolerance has a share-proportional component.
func TestByteMixMatchesTable4(t *testing.T) {
	for _, cfg := range All(17, 0.3) {
		tr, _ := genValid(t, cfg, 0.3)
		var bytes [trace.NumDocTypes]int64
		var total int64
		for i := range tr.Requests {
			bytes[tr.Requests[i].Type] += tr.Requests[i].Size
			total += tr.Requests[i].Size
		}
		var shareSum float64
		for _, spec := range cfg.Types {
			shareSum += spec.ByteShare
		}
		for _, spec := range cfg.Types {
			want := spec.ByteShare / shareSum
			got := float64(bytes[spec.Type]) / float64(total)
			tol := 0.05 + 0.12*want
			if math.Abs(got-want) > tol {
				t.Errorf("%s %v: byte share %.4f, want %.4f±%.3f", cfg.Name, spec.Type, got, want, tol)
			}
		}
	}
}

// TestClassroomCalendar: workload C must have requests only on class
// days (Mon-Thu pattern with deterministic field trips).
func TestClassroomCalendar(t *testing.T) {
	tr, _ := genValid(t, C(19), 0.2)
	for i := range tr.Requests {
		d := tr.Requests[i].Day(tr.Start)
		if dow := d % 7; dow > 3 {
			t.Fatalf("request on non-class day %d (dow %d)", d, dow)
		}
		if d%23 == 2 {
			t.Fatalf("request on field-trip day %d", d)
		}
	}
}

// TestNoiseAndValidation: the raw trace must contain invalid lines that
// validation removes.
func TestNoiseAndValidation(t *testing.T) {
	cfg := BL(23)
	cfg.Scale = 0.05
	raw, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, stats := trace.Validate(raw)
	if stats.DroppedStatus == 0 {
		t.Error("no non-200 noise lines generated")
	}
	if stats.InheritedSize == 0 {
		t.Error("no zero-size inheritance lines generated")
	}
	if stats.SizeChanges == 0 {
		t.Error("no size changes generated")
	}
	frac := stats.SizeChangeFraction()
	if frac <= 0 || frac > 0.05 {
		t.Errorf("size-change fraction %.4f outside the paper's 0.5%%-4.1%% ballpark", frac)
	}
}

func TestExtendedLastModified(t *testing.T) {
	tr, _ := genValid(t, BR(29), 0.02)
	withLM := 0
	for i := range tr.Requests {
		if tr.Requests[i].LastModified != 0 {
			withLM++
		}
	}
	if withLM == 0 {
		t.Fatal("BR is an extended workload but carries no Last-Modified times")
	}
}

func TestBRAudioConcentration(t *testing.T) {
	tr, _ := genValid(t, BR(31), 0.2)
	// All audio URLs live on server 1 (the popular artist site).
	audioURLs := map[string]bool{}
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if r.Type == trace.Audio {
			audioURLs[r.URL] = true
			if len(r.URL) < 12 || r.URL[:12] != "http://s1.cs" {
				t.Fatalf("audio URL %q not on the dedicated server", r.URL)
			}
		}
	}
	if len(audioURLs) == 0 {
		t.Fatal("no audio URLs in BR")
	}
	// The audio catalog must be tiny relative to requests (the paper's
	// ~96 unique songs at full scale; proportionally fewer references
	// but a similarly small catalog here).
	if len(audioURLs) > 150 {
		t.Fatalf("BR has %d unique audio URLs; expected strong concentration", len(audioURLs))
	}
}

func TestByName(t *testing.T) {
	for _, n := range Names {
		cfg, err := ByName(n, 1)
		if err != nil || cfg.Name != n {
			t.Errorf("ByName(%q) = %v, %v", n, cfg.Name, err)
		}
	}
	if _, err := ByName("XX", 1); err == nil {
		t.Error("ByName accepted XX")
	}
	if cfg, err := ByName("br", 1); err != nil || cfg.Name != "BR" {
		t.Error("ByName not case-insensitive")
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	bad := Config{Name: "bad"}
	if _, err := Generate(bad); err == nil {
		t.Error("empty config accepted")
	}
	cfg := BL(1)
	cfg.Types = []TypeSpec{{Type: trace.Text, RefShare: 0.5, ByteShare: 1}}
	if _, err := Generate(cfg); err == nil {
		t.Error("ref shares summing to 0.5 accepted")
	}
}

// TestGenerateGoroutinesEnd requires every goroutine Generate and
// GenerateValidated start to have ended once they return, and a
// rejected config to start none.
func TestGenerateGoroutinesEnd(t *testing.T) {
	start := runtime.NumGoroutine()
	bad := BL(1)
	bad.Types = nil
	for _, cfg := range []Config{{Name: "bad"}, bad} {
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("config %q accepted", cfg.Name)
		}
		if _, _, err := GenerateValidated(cfg); err == nil {
			t.Fatalf("config %q accepted", cfg.Name)
		}
		if n := runtime.NumGoroutine(); n > start {
			t.Fatalf("%d goroutines after rejecting config %q, want at most %d", n, cfg.Name, start)
		}
	}

	cfg := C(1)
	cfg.Scale = 0.01
	for i := 0; i < 50; i++ {
		var err error
		if i%2 == 0 {
			_, err = Generate(cfg)
		} else {
			_, _, err = GenerateValidated(cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// A goroutine that has signalled its end may take a moment longer
	// to exit. At most: one an earlier test left may exit meanwhile.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > start && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > start {
		t.Fatalf("%d goroutines after 50 calls, want at most %d", n, start)
	}
}

func TestMeanSizeNormalization(t *testing.T) {
	// U's byte shares sum to 1.2823 in the paper; MeanSize must
	// normalize them so the per-type means weighted by refs reproduce
	// the trace's overall mean size.
	cfg := U(1)
	var weighted float64
	for _, spec := range cfg.Types {
		weighted += spec.RefShare * cfg.MeanSize(spec)
	}
	overall := float64(cfg.TotalBytes) / float64(cfg.Requests)
	if math.Abs(weighted-overall) > overall*0.01 {
		t.Fatalf("ref-weighted mean %.0f, want %.0f", weighted, overall)
	}
}

// TestUCalendarEffects verifies §4.1's narrative structure in U: the
// semester-break dip around day 65 and the fall-semester volume surge
// from day 155.
func TestUCalendarEffects(t *testing.T) {
	tr, _ := genValid(t, U(41), 0.3)
	perDay := map[int]int{}
	for i := range tr.Requests {
		perDay[tr.Requests[i].Day(tr.Start)]++
	}
	mean := func(from, to int) float64 {
		sum, n := 0, 0
		for d := from; d <= to; d++ {
			sum += perDay[d]
			n++
		}
		return float64(sum) / float64(n)
	}
	spring := mean(20, 55)
	breakWeeks := mean(62, 73)
	fall := mean(160, 185)
	if breakWeeks >= spring*0.7 {
		t.Errorf("break volume %.0f/day not clearly below spring %.0f/day", breakWeeks, spring)
	}
	if fall <= spring*1.5 {
		t.Errorf("fall volume %.0f/day lacks the paper's surge over spring %.0f/day", fall, spring)
	}
}

// TestWeekendVolumeLower checks the weekly cycle (day 0 is a Monday).
func TestWeekendVolumeLower(t *testing.T) {
	tr, _ := genValid(t, BL(43), 0.3)
	var weekday, weekend, weekdayDays, weekendDays float64
	perDay := map[int]int{}
	for i := range tr.Requests {
		perDay[tr.Requests[i].Day(tr.Start)]++
	}
	for d, n := range perDay {
		if d%7 >= 5 {
			weekend += float64(n)
			weekendDays++
		} else {
			weekday += float64(n)
			weekdayDays++
		}
	}
	if weekendDays == 0 || weekdayDays == 0 {
		t.Fatal("missing day classes")
	}
	if weekend/weekendDays >= weekday/weekdayDays {
		t.Error("weekend volume not below weekday volume")
	}
}

// TestGFinalsReviewRaisesHitRate: G's NewDocBoost drop after day 70 must
// lift the infinite-cache hit rate at the end of the semester (Fig. 4's
// late jump).
func TestGFinalsReviewRaisesHitRate(t *testing.T) {
	cfg := G(47)
	cfg.Scale = 0.5
	tr, _, err := GenerateValidated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Experiment1(tr, 1)
	var mid, late []float64
	for _, p := range res.Rates.HR.Raw() {
		switch {
		case p.Day >= 30 && p.Day < 65:
			mid = append(mid, p.Value)
		case p.Day >= 72:
			late = append(late, p.Value)
		}
	}
	if len(mid) == 0 || len(late) == 0 {
		t.Fatal("missing day ranges")
	}
	avg := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if avg(late) <= avg(mid)+0.03 {
		t.Errorf("late-semester HR %.3f not clearly above mid-semester %.3f", avg(late), avg(mid))
	}
}
