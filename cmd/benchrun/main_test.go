package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"textjoin/internal/workload"
)

// TestRunEachExperiment smoke-tests every experiment of the table end to
// end on a small corpus.
func TestRunEachExperiment(t *testing.T) {
	for _, e := range experiments {
		if err := run(io.Discard, e.name, 600, 7); err != nil {
			t.Errorf("run(%q): %v", e.name, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run(io.Discard, "nosuch", 100, 1)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not list experiment %q", err, e.name)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper.golden")

// TestPaperGolden locks the paper's tables: every experiment but
// overhead, at the default corpus (D = 2000, seed 42), must print
// byte-for-byte what testdata/paper.golden holds. Those experiments
// report deterministic simulated cost, so any difference is a change in
// what the reproduction computes.
//
// Regenerate the file (after an intended change only) with
//
//	go test ./cmd/benchrun -run TestPaperGolden -update
func TestPaperGolden(t *testing.T) {
	c := workload.NewCorpus(workload.CorpusConfig{Docs: 2000, Seed: 42})
	var got bytes.Buffer
	for _, e := range experiments {
		if e.name == "overhead" {
			continue // times the optimizer on the wall clock
		}
		if err := e.print(c, &got); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
	if *updateGolden {
		if err := os.WriteFile("testdata/paper.golden", got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/paper.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("paper output differs from testdata/paper.golden at line %d:\n got %q\nwant %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("paper output has %d lines, testdata/paper.golden %d", len(gl), len(wl))
}
