package main

import (
	"os"
	"testing"
)

func TestRunWritesCLF(t *testing.T) {
	// run writes to stdout; redirect it to a pipe and count lines.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run("C", "", 0.005, 7, true, true)
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	if n == 0 {
		t.Fatal("tracegen produced no output")
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if err := run("ZZ", "", 0.01, 1, false, false); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunWithJSONConfig(t *testing.T) {
	js := `{"name":"lab","days":5,"requests":300,"totalBytes":3000000,
	  "types":[{"type":"Text","refShare":1.0,"byteShare":1.0,"newDocProb":0.5}]}`
	dir := t.TempDir()
	path := dir + "/lab.json"
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run("", path, 1.0, 1, false, true)
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	buf := make([]byte, 1<<20)
	if n, _ := r.Read(buf); n == 0 {
		t.Fatal("config-driven tracegen produced nothing")
	}
}

func TestRunWithMissingConfig(t *testing.T) {
	if err := run("", "/nonexistent/x.json", 1, 1, false, false); err == nil {
		t.Fatal("missing config accepted")
	}
}
