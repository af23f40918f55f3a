package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunMatchesGolden pins the example's whole output: the trace the
// JSON configuration generates and the three policies' rates on it.
func TestRunMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "output.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), golden) {
		t.Errorf("output differs from testdata/output.golden:\n%s", out.String())
	}
}
