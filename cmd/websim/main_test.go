package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webcache/internal/sim"
	"webcache/internal/trace"
	"webcache/internal/workload"
)

// rc builds the runConfig the quick smoke tests share.
func rc(exp, wl, traceFile string) runConfig {
	return runConfig{
		exp: exp, wl: wl, traceFile: traceFile,
		fraction: 0.10, scale: 0.02, seed: 7, workers: 4,
		series: true, plot: true,
	}
}

func TestRunAllExperiments(t *testing.T) {
	for _, exp := range []string{"tables", "table4", "1", "2", "2s", "classics", "3", "4", "5", "6"} {
		if err := run(io.Discard, rc(exp, "C", "")); err != nil {
			t.Errorf("run(%q): %v", exp, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, rc("bogus", "C", "")); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if err := run(io.Discard, rc("1", "ZZ", "")); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestLoadTraceFromFile(t *testing.T) {
	cfg := workload.C(3)
	cfg.Scale = 0.01
	raw, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCLF(f, raw, true); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tr, err := loadTrace("", path, "", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Requests) == 0 {
		t.Fatal("file trace empty after validation")
	}
	// The file path wins over the workload name, and validation is
	// applied: every request is status 200.
	for i := range tr.Requests {
		if tr.Requests[i].Status != 200 {
			t.Fatal("validation not applied to file trace")
		}
	}
	fileRC := rc("1", "", path)
	fileRC.scale, fileRC.seed, fileRC.workers = 1, 1, 2
	if err := run(io.Discard, fileRC); err != nil {
		t.Fatalf("run on file trace: %v", err)
	}
}

func TestLoadTraceMissingFile(t *testing.T) {
	if _, err := loadTrace("", "/nonexistent/nope.log", "", 1, 1); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestTraceCache checks the binary trace cache: a cold load writes the
// cache file, a warm load reads it back to the identical trace, and a
// corrupt cache falls back to regeneration instead of failing the run.
func TestTraceCache(t *testing.T) {
	dir := t.TempDir()
	cold, err := loadTrace("C", "", dir, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "C_seed3_scale0.01.wct")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("cold load did not write the cache: %v", err)
	}
	warm, err := loadTrace("C", "", dir, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Requests) != len(cold.Requests) || warm.Name != cold.Name || warm.Start != cold.Start {
		t.Fatalf("warm load differs: %d reqs %q/%d, want %d reqs %q/%d",
			len(warm.Requests), warm.Name, warm.Start,
			len(cold.Requests), cold.Name, cold.Start)
	}
	for i := range cold.Requests {
		if warm.Requests[i] != cold.Requests[i] {
			t.Fatalf("request %d differs after cache round trip", i)
		}
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrace("C", "", dir, 0.01, 3); err != nil {
		t.Fatalf("corrupt cache not ignored: %v", err)
	}
}

// TestGoldenExperiments replays the nine experiments against goldens
// captured from the pre-interning engine: the production replay path
// (interned columnar caches, structural policy backends) must be
// byte-identical to the recorded output.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay is a full nine-experiment run")
	}
	for _, exp := range []string{"1", "2", "2s", "2all", "classics", "3", "4", "5", "6"} {
		golden, err := os.ReadFile(filepath.Join("testdata", "exp"+exp+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		cfg := runConfig{
			exp: exp, wl: "BL", fraction: 0.10, scale: 0.05,
			seed: 42, workers: 1,
		}
		if err := run(&buf, cfg); err != nil {
			t.Fatalf("exp %s: %v", exp, err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("exp %s: output differs from golden", exp)
		}
	}
}

// TestGoldenWithObservability replays the nine experiments with the
// observability layer fully on (-metrics-out, -progress and -listen,
// so the event ring and SSE broadcaster ride along): stdout must stay
// byte-identical to the goldens, and the metrics file must be a
// well-formed JSONL stream — header, per-replay records, summary.
func TestGoldenWithObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("golden replay is a full nine-experiment run")
	}
	for _, exp := range []string{"1", "2", "2s", "2all", "classics", "3", "4", "5", "6"} {
		golden, err := os.ReadFile(filepath.Join("testdata", "exp"+exp+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		metrics := filepath.Join(t.TempDir(), "metrics.jsonl")
		var buf, progress bytes.Buffer
		cfg := runConfig{
			exp: exp, wl: "BL", fraction: 0.10, scale: 0.05,
			seed: 42, workers: 1,
			metricsOut: metrics, progress: true, progressW: &progress,
			listen: "127.0.0.1:0",
		}
		if err := run(&buf, cfg); err != nil {
			t.Fatalf("exp %s with observability: %v", exp, err)
		}
		if sim.Observer != nil {
			t.Fatal("observer still attached after run")
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("exp %s: output differs from golden with observability on", exp)
		}
		if !strings.Contains(progress.String(), "websim:") {
			t.Errorf("exp %s: no progress output rendered", exp)
		}

		raw, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		if len(lines) < 3 {
			t.Fatalf("exp %s: metrics stream has %d lines, want header + replays + summary", exp, len(lines))
		}
		var records []map[string]any
		for i, line := range lines {
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("exp %s: metrics line %d is not JSON: %v", exp, i, err)
			}
			records = append(records, rec)
		}
		header := records[0]
		if header["record"] != "header" || header["schema"] == "" || header["git_rev"] == "" {
			t.Errorf("exp %s: malformed header record: %v", exp, header)
		}
		if header["exp"] != exp || header["workload"] != "BL" {
			t.Errorf("exp %s: header misattributed: %v", exp, header)
		}
		summary := records[len(records)-1]
		if summary["record"] != "summary" {
			t.Fatalf("exp %s: final record is %v, want summary", exp, summary["record"])
		}
		replays := 0
		for _, rec := range records[1 : len(records)-1] {
			if rec["record"] != "replay" {
				t.Fatalf("exp %s: interior record is %v, want replay", exp, rec["record"])
			}
			if rec["requests"].(float64) <= 0 || rec["policy"] == "" || rec["workload"] == "" {
				t.Errorf("exp %s: implausible replay record: %v", exp, rec)
			}
			replays++
		}
		if got := int(summary["replays"].(float64)); got != replays {
			t.Errorf("exp %s: summary counts %d replays, stream has %d", exp, got, replays)
		}
	}
}

// TestListenServesLiveEndpoints runs an experiment with -listen and
// checks the introspection surface from inside the run: the static
// endpoints answer before the first replay, and the SSE stream carries
// both progress frames and the per-replay snapshots the replays push.
func TestListenServesLiveEndpoints(t *testing.T) {
	frames := make(chan string, 1024)
	cfg := rc("2", "C", "")
	cfg.workers = 1
	cfg.listen = "127.0.0.1:0"
	cfg.onListen = func(addr net.Addr) {
		base := "http://" + addr.String()
		for _, path := range []string{"/healthz", "/metrics", "/trace", "/debug/pprof/"} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s = %d", path, resp.StatusCode)
			}
		}
		resp, err := http.Get(base + "/buildinfo")
		if err != nil {
			t.Fatalf("GET /buildinfo: %v", err)
		}
		info, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(info), `"cmd": "websim"`) {
			t.Errorf("buildinfo does not name websim: %s", info)
		}

		// Subscribe before the replays start; the reader drains until
		// the run's stop() closes the server and with it the stream.
		sse, err := http.Get(base + "/events")
		if err != nil {
			t.Fatalf("GET /events: %v", err)
		}
		go func() {
			defer sse.Body.Close()
			defer close(frames)
			sc := bufio.NewScanner(sse.Body)
			for sc.Scan() {
				if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
					frames <- line
				}
			}
		}()
	}
	if err := run(io.Discard, cfg); err != nil {
		t.Fatal(err)
	}
	var replayFrames, progressFrames int
	for f := range frames {
		var rec map[string]any
		if err := json.Unmarshal([]byte(f), &rec); err != nil {
			t.Fatalf("SSE frame is not JSON: %v\n%s", err, f)
		}
		switch {
		case rec["record"] == "replay":
			replayFrames++
			if rec["policy"] == "" || rec["requests"].(float64) <= 0 {
				t.Errorf("implausible replay frame: %v", rec)
			}
		case rec["replays_done"] != nil:
			progressFrames++
		}
	}
	if replayFrames == 0 {
		t.Error("no replay snapshots streamed over SSE")
	}
	if progressFrames == 0 {
		t.Error("no progress frames streamed over SSE")
	}
}
