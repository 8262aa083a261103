package bdrmap

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/netx"
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

// TestFleetMapsMatchSoloMaps: a fleet's VPs share one alias book, so a VP
// after the first asks the wire only what the VPs below it left open. Its
// answer must not depend on that beyond what the book taught it. On
// multi-VP worlds, against RunVP, which asks everything itself: the solo
// alias graph is contained in the fleet's; every positive the fleet VP
// holds beyond the solo one joins one true router; and every VP's compiled
// image and link set from RunFleet equal RunVP's. A VP whose fleet
// resolver gained a positive (a UDP answer a lower-index VP got and the
// VP's own probe lost) may differ in a link's heuristic label and in its
// router rows, which the true alias merges; its links keep their near and
// far addresses and far AS, and its validation does not drop.
func TestFleetMapsMatchSoloMaps(t *testing.T) {
	la4 := LargeAccess()
	la4.NumVPs = 4
	profs := []Profile{la4, LargeAccess(), RegionalVP()}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		profs, seeds = []Profile{la4, RegionalVP()}, []int64{1}
	}
	for _, prof := range profs {
		for _, seed := range seeds {
			name := fmt.Sprintf("%s-%dvp-seed%d", prof.Name, prof.NumVPs, seed)
			t.Run(name, func(t *testing.T) {
				fleet := NewWorld(prof, seed)
				reps, err := mapFleet(fleet, 2)
				if err != nil {
					t.Fatal(err)
				}
				solo := NewWorld(prof, seed)
				fs, ss := fleet.Scenario(), solo.Scenario()
				gainedVPs := 0
				for vp := range reps {
					srep := solo.MapBorders(vp)
					fds, sds := fs.Datasets[vp], ss.Datasets[vp]
					for _, set := range sds.Graph.Sets() {
						for _, a := range set[1:] {
							if !fds.Graph.SameRouter(set[0], a) {
								t.Errorf("vp %d: solo graph joins %v and %v, the fleet's does not", vp, set[0], a)
							}
						}
					}
					held := make(map[[2]netx.Addr]bool)
					for _, p := range sds.Resolver.Positives() {
						held[p] = true
					}
					gained := 0
					for _, p := range fds.Resolver.Positives() {
						if held[p] {
							continue
						}
						gained++
						ra, rb := fs.Net.RouterByAddr(p[0]), fs.Net.RouterByAddr(p[1])
						if ra == nil || ra != rb {
							t.Errorf("vp %d: positive %v|%v the solo run lacks joins two routers", vp, p[0], p[1])
						}
					}
					if gained > 0 {
						gainedVPs++
						if wl, gl := linkIdentities(srep), linkIdentities(reps[vp]); !reflect.DeepEqual(wl, gl) {
							t.Errorf("vp %d: fleet links %v, solo %v", vp, gl, wl)
						}
						if reps[vp].Correct < srep.Correct || reps[vp].Total != srep.Total {
							t.Errorf("vp %d: fleet validates %d/%d, solo %d/%d", vp, reps[vp].Correct, reps[vp].Total, srep.Correct, srep.Total)
						}
						continue
					}
					if wl, gl := goldenLinks(srep), goldenLinks(reps[vp]); !reflect.DeepEqual(wl, gl) {
						t.Errorf("vp %d: fleet %d links, solo %d", vp, len(gl), len(wl))
					}
					if fi, si := vpImage(t, fleet, vp), vpImage(t, solo, vp); !bytes.Equal(fi, si) {
						t.Errorf("vp %d: compiled image differs from the solo run's", vp)
					}
				}
				t.Logf("%d VPs: %d gained a positive from the book", len(reps), gainedVPs)
			})
		}
	}
}

// linkIdentities is a report's links without their heuristic labels.
func linkIdentities(rep *Report) []goldenLink {
	out := goldenLinks(rep)
	for i := range out {
		out[i].Heuristic = ""
	}
	return out
}

// vpImage is VP vp's result compiled alone, as segment bytes.
func vpImage(t *testing.T, w *World, vp int) []byte {
	t.Helper()
	s := w.Scenario()
	var buf bytes.Buffer
	if _, err := mapdb.Compile(s.Net.HostASN, s.Results[vp:vp+1]).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
