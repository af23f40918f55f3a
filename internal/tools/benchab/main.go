// Command benchab runs the repository's end-to-end benchmark on a parent
// revision and on the working tree in interleaved pairs, and reports
// whether a claimed gain holds by the rule of the choosing-metrics guide
// (§8): each side's median and quartiles per metric, how many pairs the
// change won, and whether the medians differ by more than the distance
// between the parent's own quartiles.
//
//	go run ./internal/tools/benchab -parent HEAD~1 -workload proxy-large -pairs 10
//
// The parent is unpacked with `git archive` into a temporary directory
// that is removed on exit. Each side's benchmark program is built once,
// before the first pair, so every run of a side starts the same binary
// and no run pays for (or varies with) a compile. Only the benchmark's
// stdout line is read; the benchmark itself writes under bench/out/,
// which git ignores.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // relative worsening that counts as a regression
}

// benchLine is the benchmark's stdout document.
type benchLine struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	parent := flag.String("parent", "", "revision to compare the working tree against (required)")
	workload := flag.String("workload", "proxy-large", "benchmark workload")
	pairs := flag.Int("pairs", 10, "interleaved parent/change pairs to run")
	seconds := flag.Int("seconds", 15, "benchmark run length, the same on both sides")
	flag.Parse()
	if err := run(*parent, *workload, *pairs, *seconds); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func run(parent, workload string, pairs, seconds int) error {
	if parent == "" || pairs < 1 {
		return fmt.Errorf("usage: benchab -parent REV [-workload NAME] [-pairs N] [-seconds S]")
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil {
		return fmt.Errorf("finding the repository root: %w", err)
	}
	root := strings.TrimSpace(string(top))
	specs, err := readSpecs(root)
	if err != nil {
		return err
	}
	parentDir, err := os.MkdirTemp("", "benchab-parent-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(parentDir)
	if err := unpack(root, parent, parentDir); err != nil {
		return err
	}

	binDir, err := os.MkdirTemp("", "benchab-bin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(binDir)

	sides := [2]struct {
		name, dir, bin string
		runs           []benchLine
	}{{name: "parent", dir: parentDir}, {name: "change", dir: root}}
	for k := range sides {
		sides[k].bin = filepath.Join(binDir, "bench-"+sides[k].name)
		build := exec.Command("go", "build", "-C", filepath.Join(sides[k].dir, "bench"), "-o", sides[k].bin, ".")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building the %s benchmark: %w", sides[k].name, err)
		}
	}
	for i := 1; i <= pairs; i++ {
		order := [2]int{0, 1}
		if i%2 == 0 {
			order = [2]int{1, 0} // alternate which side runs first
		}
		for _, k := range order {
			line, err := bench(sides[k].bin, sides[k].dir, workload, i, seconds)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i, sides[k].name, err)
			}
			sides[k].runs = append(sides[k].runs, line)
		}
		fmt.Printf("pair %d (%s first):", i, sides[order[0]].name)
		for _, m := range specs {
			fmt.Printf("  %s %.4g -> %.4g", m.Name, sides[0].runs[i-1].Metrics[m.Name].Value, sides[1].runs[i-1].Metrics[m.Name].Value)
		}
		fmt.Println()
	}

	fmt.Printf("\n%s, %d pairs, parent %s; quartiles as [q1 median q3]\n", workload, pairs, parent)
	for _, m := range specs {
		var p, c []float64
		for i := range sides[0].runs {
			p = append(p, sides[0].runs[i].Metrics[m.Name].Value)
			c = append(c, sides[1].runs[i].Metrics[m.Name].Value)
		}
		fmt.Println(summarize(m, p, c))
	}
	return nil
}

// summarize is one metric's line of the report: p and c hold the
// parent's and the change's value of each pair, in pair order.
func summarize(m metricSpec, p, c []float64) string {
	wins, losses := 0, 0
	for i := range p {
		switch {
		case p[i] == c[i]: // a tie counts for neither side
		case (c[i] < p[i]) == (m.Better == "lower"):
			wins++
		default:
			losses++
		}
	}
	pq, cq := quartiles(p), quartiles(c)
	change := (cq[1] - pq[1]) / pq[1]
	worse := change // relative move of the median in the direction that is worse
	if m.Better == "higher" {
		worse = -change
	}
	beyondIQR := math.Abs(cq[1]-pq[1]) > pq[2]-pq[0]
	verdict := "within the parent's IQR"
	switch {
	case worse > m.Bound:
		verdict = fmt.Sprintf("REGRESSION beyond the %.0f%% bound", m.Bound*100)
	case beyondIQR && worse < 0:
		verdict = "better by more than the parent's IQR"
	case beyondIQR:
		verdict = "worse by more than the parent's IQR, inside the bound"
	}
	return fmt.Sprintf("%-16s parent [%.4g %.4g %.4g]  change [%.4g %.4g %.4g]  %+.1f%%  change wins %d, loses %d of %d  %s",
		m.Name, pq[0], pq[1], pq[2], cq[0], cq[1], cq[2], change*100, wins, losses, len(p), verdict)
}

func readSpecs(root string) ([]metricSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return doc.EndToEnd, nil
}

// unpack extracts rev's tree into dir.
func unpack(root, rev, dir string) error {
	archive := exec.Command("git", "-C", root, "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	return untar.Wait()
}

// bench runs the benchmark binary once with dir, the tree it measures,
// as its working directory, and parses its stdout line.
func bench(bin, dir, workload string, seed, seconds int) (benchLine, error) {
	cmd := exec.Command(bin,
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return benchLine{}, fmt.Errorf("%w\n%s", err, stderr.Bytes())
	}
	var line benchLine
	if err := json.Unmarshal(bytes.TrimSpace(out), &line); err != nil {
		return benchLine{}, fmt.Errorf("parsing benchmark output %q: %w", out, err)
	}
	if !line.Correct || line.Failed > 0 {
		return benchLine{}, fmt.Errorf("benchmark run incorrect (correct=%v, failed=%d)", line.Correct, line.Failed)
	}
	return line, nil
}

// quartiles returns q1, the median and q3 by linear interpolation.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}
