package bdrmap

import (
	"fmt"
	"reflect"
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/scamper"
)

// Differential harness for the fleet coordinator: every golden scenario
// runs through the sequential one-worker coordinator (MapAll) and through
// wider fleets — workers 4 and 8, adversarial enqueue orders — and the
// outputs must be byte-identical: same per-VP link sets and owner
// attributions, same merged map, same provenance trace fingerprint, same
// span-tree fingerprint. Run under -race these tests double as the
// data-race check on the worker pool.

// ownerRow is the stable serialization of one router's attribution.
type ownerRow struct {
	Addrs     string
	Owner     string
	Heuristic string
	IsHost    bool
	HopDist   int
}

func ownerRows(rep *Report) []ownerRow {
	res := rep.Raw()
	out := make([]ownerRow, 0, len(res.Routers))
	for _, rn := range res.Routers {
		addrs := ""
		for i, a := range rn.Addrs {
			if i > 0 {
				addrs += ","
			}
			addrs += a.String()
		}
		out = append(out, ownerRow{
			Addrs:     addrs,
			Owner:     rn.Owner.String(),
			Heuristic: string(rn.Heuristic),
			IsHost:    rn.IsHost,
			HopDist:   rn.HopDist,
		})
	}
	return out
}

// mapFleet measures every VP of w on a workers-wide fleet and reports
// each, indexed by VP.
func mapFleet(w *World, workers int) ([]*Report, error) {
	results, err := w.Scenario().RunFleet(scamper.Config{}, eval.FleetOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	reps := make([]*Report, len(results))
	for i, res := range results {
		reps[i] = w.buildReport(res)
	}
	return reps, nil
}

// diffReports asserts two runs of the same scenario produced byte-identical
// maps: link sets, owner attributions, and trace fingerprints.
func diffReports(t *testing.T, wantName, gotName string, want, got *Report, wantFP, gotFP string) {
	t.Helper()
	if wl, gl := goldenLinks(want), goldenLinks(got); !reflect.DeepEqual(wl, gl) {
		t.Errorf("link sets diverged\n%s (%d links): %s\n%s (%d links): %s",
			wantName, len(wl), mustJSON(wl), gotName, len(gl), mustJSON(gl))
	}
	if wo, do := ownerRows(want), ownerRows(got); !reflect.DeepEqual(wo, do) {
		t.Errorf("owner attributions diverged\n%s (%d routers): %s\n%s (%d routers): %s",
			wantName, len(wo), mustJSON(wo), gotName, len(do), mustJSON(do))
	}
	if wantFP != gotFP {
		t.Errorf("trace fingerprints diverged: %s=%s %s=%s", wantName, wantFP, gotName, gotFP)
	}
}

// diffWorlds compares two worlds VP by VP plus their merged maps and both
// observability fingerprints.
func diffWorlds(t *testing.T, seqName, fltName string, seq, flt *World, seqReps, fltReps []*Report) {
	t.Helper()
	if len(seqReps) != len(fltReps) {
		t.Fatalf("%s has %d reports, %s has %d", seqName, len(seqReps), fltName, len(fltReps))
	}
	for i := range seqReps {
		if seqReps[i] == nil || fltReps[i] == nil {
			t.Fatalf("vp %d: nil report (%s=%v %s=%v)", i, seqName, seqReps[i] == nil, fltName, fltReps[i] == nil)
		}
		diffReports(t, seqName, fltName, seqReps[i], fltReps[i],
			seq.TraceFingerprint(), flt.TraceFingerprint())
	}
	sm := core.Merge(seq.Scenario().Results)
	fm := core.Merge(flt.Scenario().Results)
	if !reflect.DeepEqual(sm, fm) {
		t.Errorf("merged maps diverged: %s %d links, %s %d links",
			seqName, sm.LinkCount(), fltName, fm.LinkCount())
	}
	if sf, ff := seq.SpanFingerprint(), flt.SpanFingerprint(); sf != ff {
		t.Errorf("span fingerprints diverged: %s=%s %s=%s", seqName, sf, fltName, ff)
	}
}

// TestDifferentialSequentialVsFleet runs the golden (profile, seed)
// scenarios through the sequential coordinator and 4- and 8-worker fleets.
func TestDifferentialSequentialVsFleet(t *testing.T) {
	cases := []struct {
		name string
		prof Profile
	}{
		{"tiny", Tiny()},
		{"regional-vp", RegionalVP()},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 2} {
			seq := NewWorld(tc.prof, seed)
			seqReps := seq.MapAll()
			for _, workers := range []int{4, 8} {
				t.Run(fmt.Sprintf("%s-seed%d-workers%d", tc.name, seed, workers), func(t *testing.T) {
					flt := NewWorld(tc.prof, seed)
					fltReps, err := mapFleet(flt, workers)
					if err != nil {
						t.Fatal(err)
					}
					if len(seqReps[0].Links) == 0 {
						t.Fatal("no links inferred")
					}
					diffWorlds(t, "sequential", fmt.Sprintf("workers=%d", workers), seq, flt, seqReps, fltReps)
				})
			}
		}
	}
}

// TestDifferentialFleetAdversarialOrder permutes the enqueue order so
// completion order inverts, and requires the same bytes anyway.
func TestDifferentialFleetAdversarialOrder(t *testing.T) {
	seq := NewWorld(RegionalVP(), 1)
	seqReps := seq.MapAll()

	flt := NewWorld(RegionalVP(), 1)
	n := flt.NumVPs()
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	if _, err := flt.Scenario().RunFleet(scamper.Config{}, eval.FleetOptions{
		Workers: 8, Order: order,
	}); err != nil {
		t.Fatal(err)
	}
	fltReps := make([]*Report, n)
	for i, res := range flt.Scenario().Results {
		fltReps[i] = flt.buildReport(res)
	}
	diffWorlds(t, "sequential", "reversed-order", seq, flt, seqReps, fltReps)
}
