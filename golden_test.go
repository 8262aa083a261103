package bdrmap

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bdrmap/internal/goldenguard"
	"bdrmap/internal/scamper"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test -run TestGoldenBorders -update ./
//
// Review the resulting testdata/golden/*.json diff before committing — a
// golden change means the inferred border map changed.
var update = flag.Bool("update", false, "rewrite testdata/golden files")

// goldenLink is the stable serialization of one inferred link.
type goldenLink struct {
	Near      string `json:"near"`
	Far       string `json:"far"`
	FarAS     string `json:"far_as"`
	Heuristic string `json:"heuristic"`
}

func goldenLinks(rep *Report) []goldenLink {
	out := make([]goldenLink, 0, len(rep.Links))
	for _, l := range rep.Links {
		far := l.FarAddr.String()
		if l.FarAddr.IsZero() {
			far = "silent"
		}
		out = append(out, goldenLink{
			Near:      l.NearAddr.String(),
			Far:       far,
			FarAS:     l.FarAS.String(),
			Heuristic: l.Heuristic,
		})
	}
	return out
}

// TestGoldenBorders is the end-to-end regression harness: the exact
// inferred link set for fixed (profile, seed) pairs, compared against
// checked-in golden files. Any change to the topology generator, BGP
// propagation, probing schedule, alias resolution, or inference heuristics
// that alters the output shows up as a diff here.
func TestGoldenBorders(t *testing.T) {
	cases := []struct {
		name  string
		prof  Profile
		seeds []int64
	}{
		{"tiny", Tiny(), []int64{1, 2, 3}},
		{"re", RE(), []int64{1, 2, 3}},
		// Extension scenarios (see DESIGN.md, "Scenario catalog"): one
		// seed each — the point is the exact link set under the stressed
		// assumption, not seed sensitivity.
		{"remote-peering", RemotePeering(), []int64{1}},
		{"hypergiant", Hypergiant(), []int64{1}},
		{"route-server", RouteServerMix(), []int64{1}},
		{"regional-vp", RegionalVP(), []int64{1}},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			t.Run(fmt.Sprintf("%s-seed%d", tc.name, seed), func(t *testing.T) {
				world := NewWorld(tc.prof, seed)
				rep := world.MapBorders(0)
				got := goldenLinks(rep)
				path := filepath.Join("testdata", "golden",
					fmt.Sprintf("%s-seed%d.json", tc.name, seed))

				if *update {
					goldenguard.Check(t)
					raw, err := json.MarshalIndent(got, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("wrote %s (%d links)", path, len(got))
					return
				}

				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run `go test -run TestGoldenBorders -update ./`): %v", err)
				}
				var want []goldenLink
				if err := json.Unmarshal(raw, &want); err != nil {
					t.Fatalf("corrupt golden file %s: %v", path, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("inferred link set diverged from %s\ngot  (%d links): %s\nwant (%d links): %s",
						path, len(got), mustJSON(got), len(want), mustJSON(want))
				}
			})
		}
	}
}

func mustJSON(v any) string {
	raw, _ := json.Marshal(v)
	return string(raw)
}

// TestTopologyInvariantUnderWorkers: probing concurrency must never leak
// into the world itself. The serialized topology — annotations included —
// is byte-identical whether the map was measured with 1 worker or 4.
func TestTopologyInvariantUnderWorkers(t *testing.T) {
	profiles := []struct {
		name string
		prof Profile
	}{
		{"tiny", Tiny()},
		{"remote-peering", RemotePeering()},
	}
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			serialize := func(workers int) []byte {
				world := NewWorld(p.prof, 1)
				world.Scenario().RunVP(0, scamper.Config{Workers: workers})
				var buf bytes.Buffer
				if err := world.SaveWorld(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			if !bytes.Equal(serialize(1), serialize(4)) {
				t.Fatal("serialized topology differs between Workers=1 and Workers=4")
			}
		})
	}
}

// TestSnapshotDeterministic builds the same world twice and requires the
// deterministic portion of the metrics snapshot (everything except
// wall-clock stage timings) to be identical — the observability layer
// itself must not introduce run-to-run noise.
func TestSnapshotDeterministic(t *testing.T) {
	run := func() Metrics {
		world := NewWorld(Tiny(), 1)
		world.MapBorders(0)
		return world.Snapshot()
	}
	a, b := run(), run()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("metric fingerprints differ across identical runs\nfirst:\n%s\nsecond:\n%s",
			a.Format(), b.Format())
	}
	if a.Counter("driver.traces") == 0 || a.Counter("probe.packets_sent") == 0 {
		t.Fatalf("expected nonzero pipeline counters, got:\n%s", a.Format())
	}
}

// checkGoldenMap holds got to testdata/golden/<file>, a JSON object of pinned
// values by name; -update rewrites the file instead.
func checkGoldenMap[T comparable](t *testing.T, file string, got map[string]T) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *update {
		goldenguard.Check(t)
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]T
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	for k, w := range want {
		if g := got[k]; g != w {
			t.Errorf("%s: got %+v, pinned %+v", k, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d entries measured, %d pinned in %s", len(got), len(want), path)
	}
}
