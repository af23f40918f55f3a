package obs

import (
	"bytes"
	"encoding/json"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeLines parses a JSONL buffer into one map per line.
func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("bad JSONL line %d: %v", len(out), err)
		}
		out = append(out, m)
	}
	return out
}

func TestObserverJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{
		Metrics: &buf,
		Meta:    map[string]any{"git_rev": "abc123", "tool": "websim"},
	})
	o.SetExperiment("2")
	o.EmitReplay(ReplaySnapshot{
		Workload: "BL", Policy: "SIZE/RANDOM", Capacity: 1000,
		Requests: 100, Hits: 40, Misses: 60, Evictions: 7,
		EvictedBytes: 7000, HeapPeak: 12, OccupancyHighWater: 990,
		ReplayNs: 14300, NsPerRequest: 143,
	})
	o.Registry().Counter("cache.hits").Add(40)
	if err := o.Close(RunSummary{Workers: 4}); err != nil {
		t.Fatal(err)
	}

	lines := decodeLines(t, &buf)
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL records, want header+replay+summary", len(lines))
	}
	h := lines[0]
	if h["record"] != "header" || h["schema"] != SchemaVersion || h["git_rev"] != "abc123" {
		t.Fatalf("header = %v", h)
	}
	r := lines[1]
	if r["record"] != "replay" || r["policy"] != "SIZE/RANDOM" || r["experiment"] != "2" {
		t.Fatalf("replay record = %v", r)
	}
	if r["heap_peak"] != float64(12) || r["occupancy_high_water"] != float64(990) {
		t.Fatalf("replay gauges = %v", r)
	}
	s := lines[2]
	if s["record"] != "summary" || s["replays"] != float64(1) {
		t.Fatalf("summary = %v", s)
	}
	metrics, ok := s["metrics"].(map[string]any)
	if !ok || metrics["cache.hits"] != float64(40) {
		t.Fatalf("summary metrics = %v", s["metrics"])
	}
}

func TestObserverConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	o := New(Options{Metrics: &buf})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				o.EmitReplay(ReplaySnapshot{Policy: "P", Requests: 1})
			}
		}()
	}
	wg.Wait()
	if err := o.Close(RunSummary{}); err != nil {
		t.Fatal(err)
	}
	// Every streamed line must still be valid JSON (no torn writes), and
	// the summary counts every replay.
	lines := decodeLines(t, &buf)
	if got := len(lines); got != 402 { // header + 400 replays + summary
		t.Fatalf("%d JSONL lines, want 402", got)
	}
	if got := lines[401]["replays"]; got != float64(400) {
		t.Fatalf("summary replays = %v, want 400", got)
	}
}

func TestProgressCountsAndLine(t *testing.T) {
	p := NewProgress(nil, "websim", time.Hour)
	p.AddTotal(36)
	p.Done(9)
	done, total := p.Counts()
	if done != 9 || total != 36 {
		t.Fatalf("counts = %d/%d, want 9/36", done, total)
	}
	line := p.Line()
	for _, want := range []string{"websim:", "9/36", "25%", "eta"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
	// No total yet: the line degrades to a plain completion count.
	q := NewProgress(nil, "bench", time.Hour)
	q.Done(3)
	if line := q.Line(); !strings.Contains(line, "3 replays done") {
		t.Fatalf("totalless line = %q", line)
	}
}

func TestProgressStopWritesFinalLine(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "websim", time.Hour)
	p.AddTotal(4)
	p.Done(4)
	p.Start()
	p.Stop()
	p.Stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "4/4") || !strings.Contains(out, "100%") {
		t.Fatalf("final line = %q", out)
	}
	if strings.Count(out, "\n") != 1 {
		t.Fatalf("double Stop wrote %d lines:\n%s", strings.Count(out, "\n"), out)
	}
}

// goroutineLabels dumps the debug-form goroutine profile, whose
// entries include each labeled goroutine's pprof label set.
func goroutineLabels(t *testing.T) string {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestSpanSetsPprofLabels(t *testing.T) {
	ran := false
	Span([]string{"policy", "SIZE/ATIME", "workload", "BL"}, func() {
		ran = true
		prof := goroutineLabels(t)
		if !strings.Contains(prof, `"policy":"SIZE/ATIME"`) {
			t.Errorf("goroutine profile inside span lacks the policy label:\n%s", prof)
		}
	})
	if !ran {
		t.Fatal("span body did not run")
	}
	if prof := goroutineLabels(t); strings.Contains(prof, `"policy":"SIZE/ATIME"`) {
		t.Error("policy label leaked past the span")
	}
}

func TestBuildInfoAndGitRev(t *testing.T) {
	b := BuildInfo()
	if b.GoVersion == "" {
		t.Fatal("BuildInfo has no Go version in a test binary")
	}
	if s := b.String(); !strings.Contains(s, b.GoVersion) {
		t.Fatalf("Build.String() = %q missing Go version", s)
	}
	// Inside the repo's work tree GitRev must resolve via the git
	// fallback; anywhere it must at least be non-empty.
	if rev := GitRev(); rev == "" {
		t.Fatal("GitRev returned empty")
	}
}
