package stats

import (
	"math"
	"strings"
	"testing"

	"webcache/internal/rng"
)

func TestDailySeriesBasics(t *testing.T) {
	var s DailySeries
	for d := 0; d < 10; d++ {
		s.Add(d, float64(d))
	}
	raw := s.Raw()
	if len(raw) != 10 {
		t.Fatalf("raw length %d", len(raw))
	}
	ma := s.MovingAverage()
	// First point at recorded day index 6: mean of 0..6 = 3.
	if len(ma) != 4 {
		t.Fatalf("MA length %d, want 4", len(ma))
	}
	if ma[0].Day != 6 || ma[0].Value != 3 {
		t.Fatalf("MA[0] = %+v, want day 6 value 3", ma[0])
	}
	if ma[3].Day != 9 || ma[3].Value != 6 {
		t.Fatalf("MA[3] = %+v, want day 9 value 6", ma[3])
	}
}

// TestMovingAverageRecordedDaysOnly mirrors the paper's classroom
// handling: the window spans recorded days, skipping silent ones.
func TestMovingAverageRecordedDaysOnly(t *testing.T) {
	var s DailySeries
	days := []int{0, 1, 2, 3, 7, 8, 9, 14} // gaps at weekends
	for i, d := range days {
		s.Add(d, float64(i))
	}
	ma := s.MovingAverage()
	if len(ma) != 2 {
		t.Fatalf("MA length %d, want 2", len(ma))
	}
	// First window: recorded values 0..6 -> mean 3, at day 9.
	if ma[0].Day != 9 || ma[0].Value != 3 {
		t.Fatalf("MA[0] = %+v", ma[0])
	}
	if ma[1].Day != 14 || ma[1].Value != 4 {
		t.Fatalf("MA[1] = %+v", ma[1])
	}
}

func TestDailySeriesOverwriteSameDay(t *testing.T) {
	var s DailySeries
	s.Add(3, 1)
	s.Add(3, 9)
	if got := s.Raw(); len(got) != 1 || got[0].Value != 9 {
		t.Fatalf("same-day add: %+v", got)
	}
}

func TestDailySeriesPanicsOnRegression(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Add did not panic")
		}
	}()
	var s DailySeries
	s.Add(5, 1)
	s.Add(4, 1)
}

func TestMean(t *testing.T) {
	var s DailySeries
	if s.Mean() != 0 {
		t.Fatal("empty mean")
	}
	s.Add(0, 2)
	s.Add(1, 4)
	if s.Mean() != 3 {
		t.Fatalf("mean %v", s.Mean())
	}
}

func TestRatioTo(t *testing.T) {
	var num, den DailySeries
	for d := 0; d < 20; d++ {
		num.Add(d, 0.4)
		den.Add(d, 0.8)
	}
	r := num.RatioTo(&den)
	if len(r) == 0 {
		t.Fatal("empty ratio series")
	}
	for _, p := range r {
		if math.Abs(p.Value-0.5) > 1e-12 {
			t.Fatalf("ratio at day %d = %v, want 0.5", p.Day, p.Value)
		}
	}
	if m := num.MeanRatioTo(&den); math.Abs(m-0.5) > 1e-12 {
		t.Fatalf("mean ratio %v", m)
	}
}

// TestMeanRatioToMatchesRatioTo checks the one-pass MeanRatioTo, as
// float64 bits, against the mean of RatioTo's points on random series
// with gaps, days only one series records, zero days and short series.
func TestMeanRatioToMatchesRatioTo(t *testing.T) {
	r := rng.New(11)
	randomSeries := func() *DailySeries {
		var s DailySeries
		day := r.Intn(3)
		for n := r.Intn(40); n > 0; n-- {
			v := r.Float64()
			if r.Intn(4) == 0 {
				v = 0
			}
			s.Add(day, v)
			day += 1 + r.Intn(3)
		}
		return &s
	}
	for i := 0; i < 2000; i++ {
		num, den := randomSeries(), randomSeries()
		want := 0.0
		if ratios := num.RatioTo(den); len(ratios) > 0 {
			for _, p := range ratios {
				want += p.Value
			}
			want /= float64(len(ratios))
		}
		if got := num.MeanRatioTo(den); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: MeanRatioTo = %v, mean of RatioTo = %v\nnum %v\nden %v", i, got, want, num.Raw(), den.Raw())
		}
	}
	var num, den DailySeries
	for d := 0; d < 30; d++ {
		num.Add(d, 0.5)
		den.Add(d, 1)
	}
	if a := testing.AllocsPerRun(10, func() { num.MeanRatioTo(&den) }); a != 0 {
		t.Errorf("MeanRatioTo allocated %v times per call, want 0", a)
	}
}

func TestRatioSkipsZeroBase(t *testing.T) {
	var num, den DailySeries
	for d := 0; d < 10; d++ {
		num.Add(d, 1)
		den.Add(d, 0)
	}
	if r := num.RatioTo(&den); len(r) != 0 {
		t.Fatalf("ratio against zero base: %v", r)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Median != 2.5 {
		t.Fatalf("summary %+v", s)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary N")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(-1)   // underflow
	h.Add(0)    // bin 0
	h.Add(9.99) // bin 0
	h.Add(95)   // bin 9
	h.Add(100)  // overflow
	h.Add(150)  // overflow
	if h.Underflow != 1 || h.Overflow != 2 {
		t.Fatalf("under/over %d/%d", h.Underflow, h.Overflow)
	}
	if h.Counts[0] != 2 || h.Counts[9] != 1 {
		t.Fatalf("counts %v", h.Counts)
	}
	if h.N != 6 {
		t.Fatalf("N = %d", h.N)
	}
	if out := h.Render(20); !strings.Contains(out, "#") {
		t.Fatal("render has no bars")
	}
	if _, err := NewHistogram(5, 5, 1); err == nil {
		t.Fatal("degenerate range accepted")
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(2)
	h.Add(1)    // bin 0
	h.Add(3)    // bin 1
	h.Add(1024) // bin 10
	h.Add(0)    // ignored
	h.Add(-2)   // ignored
	if h.N != 3 {
		t.Fatalf("N = %d", h.N)
	}
	bins := h.Bins()
	if len(bins) != 3 || bins[0] != 0 || bins[2] != 10 {
		t.Fatalf("bins %v", bins)
	}
}

func TestRankFrequency(t *testing.T) {
	rf := RankFrequency(map[string]int64{"a": 5, "b": 100, "c": 1})
	if len(rf) != 3 || rf[0].Count != 100 || rf[2].Count != 1 {
		t.Fatalf("rank frequency %v", rf)
	}
	if rf[0].Rank != 1 || rf[2].Rank != 3 {
		t.Fatalf("ranks %v", rf)
	}
}

// TestFitZipfRecoversSlope draws from a known Zipf law and checks the
// regression recovers the exponent.
func TestFitZipfRecoversSlope(t *testing.T) {
	r := rng.New(4)
	const n, draws = 200, 2_000_000
	s := 0.9
	z, err := rng.NewZipf(r, n, s)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for i := 0; i < draws; i++ {
		k := z.Rank()
		counts[string(rune(k))+string(rune(k>>8))] = counts[string(rune(k))+string(rune(k>>8))] + 1
	}
	fit := FitZipf(RankFrequency(counts))
	if math.Abs(fit.Slope-s) > 0.12 {
		t.Fatalf("fit slope %.3f, want ~%.2f", fit.Slope, s)
	}
	if fit.R2 < 0.95 {
		t.Fatalf("fit R2 %.3f", fit.R2)
	}
}

func TestFitZipfDegenerate(t *testing.T) {
	if f := FitZipf(nil); f.N != 0 {
		t.Fatal("nil fit N")
	}
	if f := FitZipf([]RankCount{{Rank: 1, Count: 5}}); f.Slope != 0 {
		t.Fatalf("single-point fit slope %v", f.Slope)
	}
}

func TestCenterOfMass(t *testing.T) {
	pts := []ScatterPoint{{X: 10, Y: 1000}, {X: 1000, Y: 10}, {X: -1, Y: 5}}
	x, y := CenterOfMass(pts)
	if math.Abs(x-100) > 1e-9 || math.Abs(y-100) > 1e-9 {
		t.Fatalf("center (%v, %v), want (100, 100)", x, y)
	}
	if x, y := CenterOfMass(nil); x != 0 || y != 0 {
		t.Fatal("empty center")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Name", "Value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 42)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "1.50") || !strings.Contains(out, "42") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4", len(lines))
	}
}
