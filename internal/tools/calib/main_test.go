package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"webcache/internal/workload"
)

// TestRunOneRowPerWorkload checks that a small-scale run prints one
// summary row per workload, in the generators' order, each followed by
// its hit-rate line and at least one type-mix line.
func TestRunOneRowPerWorkload(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 42, 0.01); err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`^(\S+)\s+reqs=\d+ \(want \d+\)  bytes=\d+MB .* days=\d+$`)
	var names []string
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	for i, line := range lines {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		names = append(names, m[1])
		if i+2 >= len(lines) || !strings.HasPrefix(lines[i+1], "    aggHR=") || !strings.Contains(lines[i+2], "refs=") {
			t.Errorf("row %q is not followed by its hit-rate and type-mix lines", line)
		}
	}
	if strings.Join(names, " ") != strings.Join(workload.Names, " ") {
		t.Errorf("rows for %v, want %v:\n%s", names, workload.Names, out.String())
	}
}
