package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
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

// fraction matches a "correct/total" cell, as EXPERIMENTS.md and the
// report print it (the report pads the total: "299/ 300").
var fraction = regexp.MustCompile(`(\d+)/\s*(\d+)`)

// networkKey folds a network's name as the report prints it ("tier1",
// "large-access") and as EXPERIMENTS.md writes it ("Tier-1", "large
// access") into one key.
func networkKey(name string) string {
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '-' {
			return -1
		}
		return r
	}, strings.ToLower(strings.TrimSpace(name)))
}

// TestExperimentsValidationTable holds EXPERIMENTS.md's §5.6 table to the
// pinned report: every network the report validates has a row, and each
// row's "correct/total" cells are the report's, column by column.
func TestExperimentsValidationTable(t *testing.T) {
	report, err := os.ReadFile(filepath.Join("testdata", "all-seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	_, sec, _ := strings.Cut(string(report), "== §5.6 validation ==\n")
	sec, _, _ = strings.Cut(sec, "\n\n")
	for _, line := range strings.Split(sec, "\n") {
		name, _, _ := strings.Cut(line, "  ")
		for _, m := range fraction.FindAllStringSubmatch(line, -1) {
			want[networkKey(name)] = append(want[networkKey(name)], m[1]+"/"+m[2])
		}
	}
	if len(want) == 0 {
		t.Fatal("the pinned report has no §5.6 validation section")
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ = strings.Cut(string(doc), "## §5.6 validation")
	sec, _, _ = strings.Cut(sec, "\n## ")
	rows := 0
	for _, line := range strings.Split(sec, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !fraction.MatchString(line) {
			continue // prose, the header row or the separator row
		}
		rows++
		key := networkKey(cells[1])
		report, ok := want[key]
		if !ok {
			t.Errorf("EXPERIMENTS.md §5.6 has a row for %q, which the report does not validate", cells[1])
			continue
		}
		delete(want, key)
		for i, m := range fraction.FindAllStringSubmatch(strings.Join(cells[2:], "|"), -1) {
			if i >= len(report) || m[1]+"/"+m[2] != report[i] {
				t.Errorf("EXPERIMENTS.md §5.6, %s, column %d: %s/%s, but the report prints %v", strings.TrimSpace(cells[1]), i+1, m[1], m[2], report)
			}
		}
	}
	if rows == 0 {
		t.Fatal("EXPERIMENTS.md has no §5.6 table")
	}
	for key := range want {
		t.Errorf("EXPERIMENTS.md §5.6 has no row for the report's %q", key)
	}
}
