package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunMatchesGolden pins the example's whole output: which requests
// the ICP sibling serves and how many reach the origin.
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
