package bdrmap

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bdrmap/internal/scamper"
)

// TestTraceFingerprintWorkerInvariant is the central determinism claim of
// the provenance layer: the merged event stream — sequence numbers,
// per-target simulated timestamps, subjects, and all non-volatile
// evidence — is a pure function of (profile, seed, cfg), so running the
// probing stage on one worker or four must produce byte-identical
// fingerprints.
func TestTraceFingerprintWorkerInvariant(t *testing.T) {
	run := func(workers int) (*World, string) {
		world := NewWorld(Tiny(), 1)
		world.Scenario().RunVP(0, scamper.Config{Workers: workers})
		return world, world.TraceFingerprint()
	}
	w1, fp1 := run(1)
	_, fp4 := run(4)
	if fp1 != fp4 {
		t.Fatalf("trace fingerprint depends on worker count:\n  workers=1 %s\n  workers=4 %s", fp1, fp4)
	}
	evs := w1.TraceEvents()
	if len(evs) == 0 {
		t.Fatal("no trace events recorded")
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Stage+"."+ev.Kind]++
	}
	for _, want := range []string{"probe.target", "probe.trace", "core.decision"} {
		if kinds[want] == 0 {
			t.Errorf("no %s events in stream: %v", want, kinds)
		}
	}
}

// TestTraceFingerprintRemoteFaults runs the same degraded remote session
// twice: the fault schedule is deterministic, so the provenance stream must
// be too. The faults cost the session retries and resumes; no trace event
// records them (the agent's probe drops reach the controller as timeouts).
func TestTraceFingerprintRemoteFaults(t *testing.T) {
	run := func() string {
		world := NewWorld(Tiny(), 1)
		if _, err := world.MapBordersRemote(0, Options{}, "seed=11,drop=0.12,heal=40"); err != nil {
			t.Fatal(err)
		}
		return world.TraceFingerprint()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("trace fingerprint not reproducible under healing faults:\n  %s\n  %s", a, b)
	}
}

// TestTraceJSONLRoundTripExplain exports the event log, reloads it, and
// requires the offline explain (the `bdrmap -trace-in` path) to render the
// same evidence chain as the in-process one.
func TestTraceJSONLRoundTripExplain(t *testing.T) {
	world := NewWorld(Tiny(), 1)
	rep := world.MapBorders(0)
	if len(rep.Links) == 0 {
		t.Fatal("no links inferred")
	}
	query := rep.Links[0].FarAS.String()

	var buf bytes.Buffer
	if err := world.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(world.TraceEvents()) {
		t.Fatalf("round trip lost events: %d != %d", len(back), len(world.TraceEvents()))
	}
	live, offline := world.Explain(query), ExplainEvents(back, query)
	if live != offline {
		t.Fatalf("offline explain diverged from live:\nlive:\n%s\noffline:\n%s", live, offline)
	}
}

// TestGoldenExplain pins the rendered evidence chain for one border router
// of the tiny world — the firing heuristic, hop distance, origin-AS and
// relationship rows, and the supporting alias/probe measurements. Update
// with `go test -run TestGoldenExplain -update ./`.
func TestGoldenExplain(t *testing.T) {
	world := NewWorld(Tiny(), 1)
	rep := world.MapBorders(0)

	// Explain the near-side interface of the first as-relationship link:
	// a host-space border router whose owner took real constraint
	// reasoning (relationship + adjacency), not just IP-AS lookup.
	query := ""
	for _, l := range rep.Links {
		if l.Heuristic == "as-relationship" {
			query = l.FarAddr.String()
			break
		}
	}
	if query == "" {
		t.Fatal("tiny world inferred no as-relationship link")
	}
	got := world.Explain(query)
	for _, want := range []string{"hop distance", "origin AS", "relationship", "as-relationship"} {
		if !strings.Contains(got, want) {
			t.Fatalf("explain output missing %q:\n%s", want, got)
		}
	}

	path := filepath.Join("testdata", "golden", "explain-tiny-seed1.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestGoldenExplain -update ./`): %v", err)
	}
	if got != string(raw) {
		t.Errorf("explain output diverged from %s\ngot:\n%s\nwant:\n%s", path, got, raw)
	}
}

// traceFP is one pinned provenance stream: its fingerprint and how many
// events the tracer retained.
type traceFP struct {
	FP     string `json:"trace_fp"`
	Events int    `json:"events"`
}

// TestGoldenTraceFingerprints pins the provenance stream itself — not just
// its equality across runs — for the worlds the benchmark and the goldens
// use, measured locally and over the §5.8 remote protocol. A diff here
// means rendered provenance bytes moved; only a change to what a run
// measures may move them, and then `go test -run TestGoldenTraceFingerprints
// -update ./` rewrites the file.
func TestGoldenTraceFingerprints(t *testing.T) {
	large := LargeAccess()
	large.NumVPs = 4
	cases := []struct {
		name  string
		prof  Profile
		seeds []int64
		all   bool // local run maps every VP through the fleet
	}{
		{"tiny", Tiny(), []int64{1, 2, 3}, false},
		{"re", RE(), []int64{1}, false},
		{"large-access-4vp", large, []int64{1}, true},
		{"hypergiant", Hypergiant(), []int64{1}, false},
	}
	got := make(map[string]traceFP)
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			local := NewWorld(tc.prof, seed)
			if tc.all {
				local.MapAll()
			} else {
				local.MapBorders(0)
			}
			remote := NewWorld(tc.prof, seed)
			if _, err := remote.MapBordersRemote(0, Options{}, ""); err != nil {
				t.Fatal(err)
			}
			for mode, w := range map[string]*World{"local": local, "remote": remote} {
				got[fmt.Sprintf("%s-seed%d-%s", tc.name, seed, mode)] = traceFP{w.TraceFingerprint(), len(w.TraceEvents())}
			}
		}
	}
	checkGoldenMap(t, "tracefp.json", got)
}
