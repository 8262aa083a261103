package bdrmap

import (
	"bytes"
	"fmt"
	"testing"

	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
)

// normalizeWall zeroes the wall-clock duration on every span, leaving the
// deterministic portion — IDs, parents, names, details, simulated
// durations, attrs — intact for byte comparison.
func normalizeWall(recs []SpanRecord) []SpanRecord {
	out := append([]SpanRecord(nil), recs...)
	for i := range out {
		out[i].WallNS = 0
	}
	return out
}

// TestSpanTreeWorkerInvariant is the tentpole determinism claim of the
// span layer, mirroring the trace stream's: the span tree — target spans
// merged in target order, the probe stage carrying the partition-invariant
// sum of per-target simulated durations — is a pure function of (profile,
// seed, cfg), so one worker and four must produce byte-identical trees.
func TestSpanTreeWorkerInvariant(t *testing.T) {
	run := func(workers int) ([]SpanRecord, string) {
		world := NewWorld(Tiny(), 1)
		world.Scenario().RunVP(0, scamper.Config{Workers: workers})
		return world.SpanRecords(), world.SpanFingerprint()
	}
	recs1, fp1 := run(1)
	recs4, fp4 := run(4)
	if fp1 != fp4 {
		t.Fatalf("span fingerprint depends on worker count:\n  workers=1 %s\n  workers=4 %s", fp1, fp4)
	}
	// Stronger than the fingerprint: the wall-normalized JSONL exports are
	// byte-identical, volatile attrs and record order included.
	var b1, b4 bytes.Buffer
	if err := obs.WriteSpanJSONL(&b1, normalizeWall(recs1)); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSpanJSONL(&b4, normalizeWall(recs4)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b4.Bytes()) {
		t.Error("wall-normalized span JSONL differs between 1 and 4 workers")
	}

	// The tree has the documented shape: run root, vp, probe/alias/infer
	// stages, one target span per probed AS, and nonzero simulated time on
	// the probe stage.
	byName := map[string][]SpanRecord{}
	for _, r := range recs1 {
		byName[r.Name] = append(byName[r.Name], r)
	}
	for _, want := range []string{"run", "vp", "stage", "target"} {
		if len(byName[want]) == 0 {
			t.Fatalf("no %q spans in tree: %v", want, byName)
		}
	}
	stages := map[string]SpanRecord{}
	for _, r := range byName["stage"] {
		stages[r.Detail] = r
	}
	for _, want := range []string{"probe", "alias", "infer"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("no %q stage span", want)
		}
	}
	if stages["probe"].SimNS == 0 {
		t.Error("probe stage span carries no simulated time")
	}
	vpID := byName["vp"][0].ID
	if stages["probe"].Parent != vpID || stages["infer"].Parent != vpID {
		t.Error("stage spans not parented under the vp span")
	}
	probeID := stages["probe"].ID
	for _, tgt := range byName["target"] {
		if tgt.Parent != probeID {
			t.Errorf("target span %v not parented under probe stage %d", tgt, probeID)
		}
	}
}

// TestSpanTreeHealingFaultsReproducible runs the same degraded remote
// session twice: retries and session resumes add agent-session spans a
// clean run would not have, but the fault schedule is deterministic, so
// two runs of it must record identical trees.
func TestSpanTreeHealingFaultsReproducible(t *testing.T) {
	run := func() ([]SpanRecord, string) {
		world := NewWorld(Tiny(), 1)
		if _, err := world.MapBordersRemote(0, Options{}, "seed=11,drop=0.12,heal=40"); err != nil {
			t.Fatal(err)
		}
		return world.SpanRecords(), world.SpanFingerprint()
	}
	recsA, fpA := run()
	recsB, fpB := run()
	if fpA != fpB {
		t.Fatalf("span fingerprint not reproducible under healing faults:\n  %s\n  %s", fpA, fpB)
	}
	var bA, bB bytes.Buffer
	if err := obs.WriteSpanJSONL(&bA, normalizeWall(recsA)); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteSpanJSONL(&bB, normalizeWall(recsB)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bA.Bytes(), bB.Bytes()) {
		t.Error("wall-normalized span JSONL differs between two runs of one fault schedule")
	}
	// The remote path pulled the agent's session spans over the protocol
	// and grafted them under the vp span.
	var sessions int
	var vpID obs.SpanID
	for _, r := range recsA {
		if r.Name == "vp" {
			vpID = r.ID
		}
	}
	for _, r := range recsA {
		if r.Name == "agent-session" {
			sessions++
			if r.Parent != vpID {
				t.Errorf("agent-session span parented under %d, want vp %d", r.Parent, vpID)
			}
		}
	}
	if sessions == 0 {
		t.Error("no agent-session spans pulled from the remote agent")
	}
}

// TestSpanChromeExportWorld round-trips a real run's tree through the
// Chrome exporter at the World API level.
func TestSpanChromeExportWorld(t *testing.T) {
	world := NewWorld(Tiny(), 1)
	world.MapBorders(0)
	var b1 bytes.Buffer
	if err := world.WriteChromeTrace(&b1); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadChromeTrace(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if obs.FingerprintSpans(recs) != world.SpanFingerprint() {
		t.Error("Chrome round trip changed the span fingerprint")
	}
	var b2 bytes.Buffer
	if err := obs.WriteChromeTrace(&b2, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("Chrome export→import→export not byte-stable on a real run")
	}
}

// spanFP is one pinned span tree: its fingerprint and how many records the
// log holds (completed and still open).
type spanFP struct {
	FP      string `json:"span_fp"`
	Records int    `json:"records"`
}

// TestGoldenSpanFingerprints pins the span tree itself — not just its
// equality across runs — for the worlds the benchmark and the goldens use:
// every VP mapped through the fleet, and one faulted remote session. A
// diff here means a span's ID, parent, order, simulated time or attrs
// moved; only a change to what a run measures may move them, and then
// `go test -run TestGoldenSpanFingerprints -update ./` rewrites the file.
func TestGoldenSpanFingerprints(t *testing.T) {
	large4 := LargeAccess()
	large4.NumVPs = 4
	large19 := LargeAccess()
	large19.NumVPs = 19
	cases := []struct {
		name  string
		prof  Profile
		seeds []int64
	}{
		{"tiny", Tiny(), []int64{1, 2, 3}},
		{"re", RE(), []int64{1}},
		{"hypergiant", Hypergiant(), []int64{1}},
		{"route-server", RouteServerMix(), []int64{1}},
		{"large-access-4vp", large4, []int64{1}},
		{"large-access-19vp", large19, []int64{1}},
	}
	got := make(map[string]spanFP)
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			w := NewWorld(tc.prof, seed)
			w.MapAll()
			got[fmt.Sprintf("%s-seed%d", tc.name, seed)] = spanFP{w.SpanFingerprint(), len(w.SpanRecords())}
		}
	}
	faulted := NewWorld(Tiny(), 1)
	if _, err := faulted.MapBordersRemote(0, Options{}, "seed=11,drop=0.12,heal=40"); err != nil {
		t.Fatal(err)
	}
	got["tiny-seed1-remote-faulted"] = spanFP{faulted.SpanFingerprint(), len(faulted.SpanRecords())}

	checkGoldenMap(t, "spanfp.json", got)
}
