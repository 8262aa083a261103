package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bdrmap/internal/goldenguard"
)

// update rewrites the golden output instead of comparing against it:
//
//	go test ./cmd/evaltables -run TestAllSeed1 -update
var update = flag.Bool("update", false, "rewrite testdata/all-seed1.txt")

// TestAllSeed1 pins the paper's whole evaluation as the command prints it:
// every table, figure, ablation and sweep for seed 1. The run is
// deterministic, so any moved line is a changed result.
func TestAllSeed1(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, []string{"-all", "-seed", "1"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all-seed1.txt")
	if *update {
		goldenguard.Check(t)
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/evaltables -run TestAllSeed1 -update`): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
}
