package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"
)

// helperEnv makes the test binary play a benchmark run that is killed
// before it can clean up; see TestSecondRunAfterKilledFirstStartsClean.
const helperEnv = "BENCH_TEST_HELPER_PROXY"

func TestMain(m *testing.M) {
	if bin := os.Getenv(helperEnv); bin != "" {
		helperRun(bin)
		return
	}
	os.Exit(m.Run())
}

// helperRun starts origin and proxy, warms the cache, reports the
// proxy's address and then hangs until it is killed.
func helperRun(bin string) {
	s, err := newSchedule("C", 7, 0.005, 1.0)
	if err == nil {
		var l *live
		if l, err = startLive(context.Background(), bin, s, false); err == nil {
			if _, _, err = replay(context.Background(), l.proxy.addr, s, 1, nil); err == nil {
				fmt.Printf("%s\n", l.proxy.addr)
				select {}
			}
		}
	}
	fmt.Fprintln(os.Stderr, "helper:", err)
	os.Exit(1)
}

func TestPercentileIsNearestRank(t *testing.T) {
	vals := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", vals, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	shuffled := []float64{50, 15, 40, 20, 35}
	if percentile(shuffled, 50) != 35 || shuffled[0] != 50 {
		t.Error("percentile must sort a copy, not its argument")
	}
	if got := samplesBeyond(2300, 99); got != 23 {
		t.Errorf("samplesBeyond(2300, 99) = %d, want 23", got)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	s := summarize([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if s.Q1 != 3.5 || s.Median != 13.5 || s.Q3 != 31 || s.Min != 1 || s.Max != 46 || s.Reps != 10 {
		t.Errorf("summarize = %+v", s)
	}
	if s := summarize([]float64{3}); s.Median != 3 || s.Q1 != 3 || s.Q3 != 3 {
		t.Errorf("summarize of one value = %+v", s)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var inSpec, inCode []string
	for _, w := range spec.Workloads {
		inSpec = append(inSpec, w.Name)
	}
	for _, w := range workloads {
		inCode = append(inCode, w.name)
	}
	if !reflect.DeepEqual(inSpec, inCode) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", inSpec, inCode)
	}
	seen := map[string]bool{}
	for _, name := range inSpec {
		seen[name] = true
	}
	setup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is outside %s", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("name %q is used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	// Every budget line is a per-layer metric, so the budget can be read
	// from the printed result alone.
	for _, l := range budgetLines {
		if !seen[l.metric] {
			t.Errorf("budget line %s is not in BENCHMARK.json", l.metric)
		}
	}
}

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	a, err := newSchedule("BL", 5, 0.02, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSchedule("BL", 5, 0.02, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different schedules")
	}
	c, err := newSchedule("BL", 6, 0.02, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.reqs, c.reqs) {
		t.Error("two seeds gave the same schedule")
	}
	var sum int64
	for _, r := range a.reqs {
		if r.size != a.docs[r.url] {
			t.Fatalf("%s scheduled at %d bytes, origin serves %d", r.url, r.size, a.docs[r.url])
		}
		sum += r.size
	}
	if sum != a.bytes {
		t.Errorf("bytes = %d, requests sum to %d", a.bytes, sum)
	}
}

func TestBudgetSelfTimes(t *testing.T) {
	// Two requests, times in ns. In the first every span nests in its
	// parent; in the second the handler returns 20 ns after the client
	// already has its reply.
	spans := []span{
		{"client", 0, 100, "", 0},
		{"proxy.handler", 10, 90, "client", 0},
		{"store.get", 12, 17, "proxy.handler", 0},
		{"origin.roundtrip", 20, 70, "proxy.handler", 0},
		{"origin.service", 30, 50, "origin.roundtrip", 0},
		{"store.put", 72, 80, "proxy.handler", 0},

		{"client", 200, 300, "", 1},
		{"proxy.handler", 210, 320, "client", 1}, // outlives the client span by 20
		{"store.get", 215, 225, "proxy.handler", 1},
	}
	got := budget(spans)
	want := map[string]float64{ // µs per request, two requests
		"client.total_us_mean":   0.1,
		"http.client_proxy_us":   (20 + 10) / 2e3,
		"proxy.server_self_us":   (80 - 5 - 50 - 8 + 110 - 10) / 2e3,
		"proxy.store_get_us":     (5 + 10) / 2e3,
		"proxy.store_put_us":     8 / 2e3,
		"http.proxy_origin_us":   30 / 2e3,
		"origin.service_us":      20 / 2e3,
		"origin.roundtrip_us":    50 / 2e3,
		"budget.unattributed_us": -20 / 2e3,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

// budgetSum adds the budget's lines and its residue.
func budgetSum(lines map[string]float64) float64 {
	sum := lines["budget.unattributed_us"]
	for _, l := range budgetLines {
		sum += lines[l.metric]
	}
	return sum
}

func TestTracedRunBudgetSumsToTheTotal(t *testing.T) {
	s, err := newSchedule("BL", 3, 0.02, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s.reqs = s.reqs[:200]
	spanFile := t.TempDir() + "/spans.json"
	lines, client, err := runTraced(context.Background(), s, spanFile)
	if err != nil {
		t.Fatal(err)
	}
	if client.n != 200 || client.failed != 0 {
		t.Fatalf("%d requests, %d failed: %s", client.n, client.failed, client.firstFailure)
	}
	total := lines["client.total_us_mean"]
	if sum := budgetSum(lines); total <= 0 || math.Abs(sum-total) > 0.01*total {
		t.Errorf("lines + residue = %v µs, client total = %v µs", sum, total)
	}
	if math.Abs(lines["budget.unattributed_us"]) > 0.2*total {
		t.Errorf("residue %v µs of a %v µs request: spans are not nesting", lines["budget.unattributed_us"], total)
	}
	for _, name := range []string{"proxy.store_gets_per_req", "origin.service_us", "proxy.server_self_us", "http.client_proxy_us"} {
		if lines[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, lines[name])
		}
	}
	if b, err := os.ReadFile(spanFile); err != nil || !bytes.Contains(b, []byte(`"origin.service"`)) {
		t.Errorf("span file: err %v, origin.service spans present: %v", err, bytes.Contains(b, []byte(`"origin.service"`)))
	}
}

// emitted runs the benchmark in-process and returns, per workload, the
// names of the metrics whose printed value is not zero.
func emitted(t *testing.T, args ...string) map[string][]string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-quick", "-allow-dirty"}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	out := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		name, rest, _ := strings.Cut(line, " (set 1): ")
		if rest == "" { // a single workload prints the bare contract line
			name, rest = args[len(args)-1], line
		}
		if !strings.Contains(rest, `"correct":true`) {
			t.Errorf("%s: %s", name, rest)
		}
		for _, m := range regexp.MustCompile(`"([^"]+)":\{"value":([^,]+),`).FindAllStringSubmatch(rest, -1) {
			if m[2] != "0" {
				out[name] = append(out[name], m[1])
			}
		}
	}
	return out
}

// TestQuickSmoke runs every workload at scale 0.01 for one rep, both
// ways, and checks that every metric of BENCHMARK.json is produced. The
// part that builds and starts the cmd/proxy binary is skipped under
// -short.
func TestQuickSmoke(t *testing.T) {
	spec := loadSpec(t)
	var e2e, layers map[string][]string
	if testing.Short() {
		e2e = emitted(t, "-workload", "sim-sweep")
		layers = emitted(t, "-trace", "1", "-workload", "sim-sweep")
	} else {
		e2e = emitted(t)
		layers = emitted(t, "-trace", "1")
	}
	for name, got := range e2e {
		if len(got) != len(spec.EndToEnd) {
			t.Errorf("%s: end-to-end metrics %v, want all %d non-zero", name, got, len(spec.EndToEnd))
		}
	}
	if testing.Short() {
		return
	}
	if len(e2e) != len(workloads) || len(layers) != len(workloads) {
		t.Fatalf("ran %d and %d workloads, want %d", len(e2e), len(layers), len(workloads))
	}
	// Every per-layer metric is measured on at least one workload.
	measured := map[string]bool{}
	for _, names := range layers {
		for _, name := range names {
			measured[name] = true
		}
	}
	var never []string
	for _, m := range spec.PerLayer {
		// Zero is the right reading for these on a correct, quick run.
		if !measured[m.Name] && m.Name != "error_rate" && m.Name != "origin.duplicate_fetch_ratio" && m.Name != "proxy.store_put_rejected_ratio" {
			never = append(never, m.Name)
		}
	}
	sort.Strings(never)
	if len(never) > 0 {
		t.Errorf("per-layer metrics no workload measures: %v", never)
	}
}

// TestSecondRunAfterKilledFirstStartsClean kills a run (SIGKILL, so no
// deferred clean-up runs) and checks that its proxy died with it and that
// the next run gets a proxy with an empty cache. While this benchmark was
// being sized, an orphaned proxy on a fixed port served the next run from
// its stale cache.
func TestSecondRunAfterKilledFirstStartsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the cmd/proxy binary")
	}
	ctx := context.Background()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, _, err := buildProxy(ctx, root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := exec.Command(os.Args[0])
	first.Env = append(os.Environ(), helperEnv+"="+bin)
	first.Stderr = os.Stderr
	stdout, err := first.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		first.Process.Kill()
		first.Wait()
		t.Fatalf("first run did not report its proxy: %v", err)
	}
	stale := strings.TrimSpace(line)
	if c, err := net.DialTimeout("tcp", stale, time.Second); err != nil {
		t.Fatalf("first run's proxy is not listening on %s: %v", stale, err)
	} else {
		c.Close()
	}
	first.Process.Signal(syscall.SIGKILL)
	first.Wait()
	io.Copy(io.Discard, stdout)

	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", stale, 100*time.Millisecond)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatalf("the killed run's proxy still accepts connections on %s", stale)
		}
		time.Sleep(10 * time.Millisecond)
	}

	s, err := newSchedule("C", 7, 0.005, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := startLive(ctx, bin, s, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	if l.proxy.addr == stale {
		t.Logf("second run reuses port %s; the checks below still tell a fresh proxy from a stale one", stale)
	}
	w := &wire{addr: l.proxy.addr}
	defer w.close()
	rp, err := w.get(&s.reqs[0], -1)
	if err != nil || rp.check(s.reqs[0].size) != "" {
		t.Fatalf("first request of the second run: %+v, %v", rp, err)
	}
	if rp.hit() {
		t.Errorf("first request of the second run was a cache %s: the cache is not empty", rp.cache)
	}
	if n := l.origin.counts().fetches; n != 1 {
		t.Errorf("origin served %d fetches, want 1", n)
	}
}
