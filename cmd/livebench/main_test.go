package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"webcache/internal/obs"
)

// TestLiveMatchesSimulated is the validation this command exists for:
// the live proxy replay must agree with the simulator exactly when the
// semantics are aligned.
func TestLiveMatchesSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("live HTTP replay in -short mode")
	}
	for _, polSpec := range []string{"SIZE", "LRU", "LFU"} {
		var out bytes.Buffer
		if err := run("C", 0.005, polSpec, 0.10, 7, "", 0, "", &out, nil); err != nil {
			t.Fatalf("%s: %v", polSpec, err)
		}
		text := out.String()
		if !strings.Contains(text, "delta:     HR +0.00 points  WHR +0.00 points") {
			t.Errorf("%s: live and simulated disagree:\n%s", polSpec, text)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run("ZZ", 0.01, "SIZE", 0.1, 1, "", 0, "", &out, nil); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run("C", 0.005, "NOPE", 0.1, 1, "", 0, "", &out, nil); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestRegistryCrossCheck runs with the shared registry on: the
// simulated cache's sim.* counts and the live store's store.* counts
// must agree exactly, mirroring the hit-rate delta, and the
// report must end with the registry exposition.
func TestRegistryCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("live HTTP replay in -short mode")
	}
	reg := obs.NewRegistry()
	var out bytes.Buffer
	if err := run("C", 0.005, "LRU", 0.10, 7, "", 0, "", &out, reg); err != nil {
		t.Fatal(err)
	}
	pairs := map[string]string{
		"sim.hits":      "store.hits",
		"sim.misses":    "store.misses",
		"sim.evictions": "store.evictions",
		"sim.inserts":   "store.inserts",
	}
	snap := reg.Snapshot()
	for simName, liveName := range pairs {
		simV, liveV := snap[simName], snap[liveName]
		if simV == nil || simV == int64(0) {
			t.Errorf("%s = %v — sim stats not registered?", simName, simV)
		}
		if simV != liveV {
			t.Errorf("%s = %v but %s = %v", simName, simV, liveName, liveV)
		}
	}
	if got := snap["proxy.requests"]; got == nil || got == int64(0) {
		t.Errorf("proxy.requests = %v — proxy metrics not registered?", got)
	}
	if reg.Histogram("proxy.latency_ns").Count() == 0 {
		t.Error("proxy latency histogram empty")
	}
	text := out.String()
	for _, want := range []string{"registry:  sim hits", "--- registry ---", "proxy.latency_ns.p50"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestShadowCrossCheck is the shadow fleet's acceptance criterion:
// with a ghost-cache fleet riding the live replay, every shadow
// policy's end-of-run hits must
// equal a fresh simulator replay of that policy exactly, and the
// deployed policy's row must equal the live store's counters. BL at
// this scale has 23 CGI requests, which reach neither the store nor
// the shadows, so the shadows' requests are the simulator's less
// those. run itself errors on any mismatch; the test additionally
// pins the report shape, and that the fleet applied one event per
// store lookup (the replay sends no reloads).
func TestShadowCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("live HTTP replay in -short mode")
	}
	var out bytes.Buffer
	if err := run("BL", 0.05, "SIZE", 0.10, 42, "LRU,SIZE,LFU,SIZE/NREF", 0, "", &out, nil); err != nil {
		t.Fatalf("shadowed run: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "delta:     HR +0.00 points  WHR +0.00 points") {
		t.Errorf("live and simulated disagree:\n%s", text)
	}
	if got := strings.Count(text, "exact match"); got != 4 {
		t.Errorf("%d shadows match exactly, want 4:\n%s", got, text)
	}
	if strings.Contains(text, "MISMATCH") {
		t.Errorf("shadow/simulator mismatch:\n%s", text)
	}
	// The deployed policy (SIZE) runs both live and as a shadow: its row
	// must equal the live store's gets, hits and evictions. (Live HR's
	// denominator counts the CGI requests too, so HRs would not agree.)
	m := regexp.MustCompile(`deployed SIZE row == store: (\d+)/(\d+) requests, (\d+)/(\d+) hits, (\d+)/(\d+) evictions`).FindStringSubmatch(text)
	if m == nil || m[1] != m[2] || m[3] != m[4] || m[5] != m[6] {
		t.Fatalf("deployed-policy shadow row disagrees with the store (%v):\n%s", m, text)
	}
	if !strings.Contains(text, "(4 policies, "+m[2]+" events)") {
		t.Errorf("the fleet did not apply one event per store lookup (%s):\n%s", m[2], text)
	}
}

// TestTraceExport is the tracing acceptance criterion: a livebench run
// with -trace-sample 1 -trace-out must export Chrome trace-event JSON
// in which a sampled miss that evicted renders its parse → store.get →
// origin TTFB → admission → eviction spans as a correctly nested tree
// (every child span inside its request's parent span, on the request
// tree pid).
func TestTraceExport(t *testing.T) {
	if testing.Short() {
		t.Skip("live HTTP replay in -short mode")
	}
	traceFile := t.TempDir() + "/trace.json"
	var out bytes.Buffer
	if err := run("C", 0.005, "SIZE", 0.10, 7, "", 1, traceFile, &out, nil); err != nil {
		t.Fatal(err)
	}
	for _, pat := range []string{
		`tracing:   sampled \d+, kept \d+ \(\d+ flagged\)`,
		`tracing:   wrote Chrome trace to `,
	} {
		if !regexp.MustCompile(pat).MatchString(out.String()) {
			t.Errorf("report missing /%s/:\n%s", pat, out.String())
		}
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []ev
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}

	// Collect the request trees: parent "request" events and their
	// children keyed by tid (one tid per sampled request).
	parents := map[int]ev{}
	children := map[int][]ev{}
	for _, e := range events {
		if e.Pid != 2 || e.Ph != "X" {
			continue
		}
		if e.Name == "request" {
			parents[e.Tid] = e
		} else {
			children[e.Tid] = append(children[e.Tid], e)
		}
	}
	if len(parents) == 0 {
		t.Fatalf("no request span trees in export:\n%s", raw)
	}

	// Every child must nest inside its parent's [ts, ts+dur] window.
	for tid, kids := range children {
		p, ok := parents[tid]
		if !ok {
			t.Fatalf("tid %d has child spans but no request parent", tid)
		}
		for _, k := range kids {
			if k.Ts < p.Ts || k.Ts+k.Dur > p.Ts+p.Dur {
				t.Errorf("span %s [%d,%d] escapes its request window [%d,%d]",
					k.Name, k.Ts, k.Ts+k.Dur, p.Ts, p.Ts+p.Dur)
			}
		}
	}

	// At least one kept miss must have triggered evictions and carry the
	// full phase chain the issue names.
	wantPhases := []string{"parse", "store.get", "origin.ttfb", "admit", "evict"}
	found := false
	for tid, p := range parents {
		if p.Args["verdict"] != "MISS" || p.Args["evictions"] == nil {
			continue
		}
		have := map[string]bool{}
		for _, k := range children[tid] {
			have[k.Name] = true
		}
		complete := true
		for _, ph := range wantPhases {
			if !have[ph] {
				complete = false
				break
			}
		}
		if complete {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no sampled miss renders the full %v chain:\n%s", wantPhases, raw)
	}
}

func TestOutputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("live HTTP replay in -short mode")
	}
	var out bytes.Buffer
	if err := run("BL", 0.003, "SIZE", 0.10, 3, "", 0, "", &out, nil); err != nil {
		t.Fatal(err)
	}
	for _, pat := range []string{
		`workload BL: \d+ requests`,
		`simulated: HR +[0-9.]+%`,
		`origin: +\d+ fetches`,
		`live: +HR +[0-9.]+%`,
	} {
		if !regexp.MustCompile(pat).MatchString(out.String()) {
			t.Errorf("output missing /%s/:\n%s", pat, out.String())
		}
	}
}
