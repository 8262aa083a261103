package bdrmap

import (
	"reflect"
	"testing"

	"bdrmap/internal/mapdb"
)

// TestEntryPointsAgree is the guard on "one way to run a VP": every public
// entry point must give the same vantage point the same answer — links,
// owner attributions, the dataset's trace fingerprint and its run stats —
// in any call order. The reference is MapAll; against it run MapBorders
// called in VP order on one world, MapBorders on a fresh world per VP, a
// four-worker RunFleet, and round 0 of a non-incremental RunRounds.
//
// The fleets (MapAll, RunFleet, RunRounds) share one alias book across
// their VPs, and MapBorders asks every alias question itself. So the
// fleets agree on the run stats whole, while MapBorders agrees on every
// field but the simulated duration, which is at least the fleet's (the
// alias rounds the book spared it) and equal for VP 0, which has no VP
// below it. On one-VP profiles the VP-ordered MapBorders world must also
// end with MapAll's provenance trace.
func TestEntryPointsAgree(t *testing.T) {
	names := ProfileNames()
	if testing.Short() {
		names = []string{"tiny", "r&e", "regional-vp"}
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prof, ok := ProfileByName(name)
			if !ok {
				t.Fatalf("unknown profile %q", name)
			}
			ref := NewWorld(prof, 1)
			want := ref.MapAll()

			ordered := NewWorld(prof, 1)
			fleet := NewWorld(prof, 1)
			fleetReps, err := mapFleet(fleet, 4)
			if err != nil {
				t.Fatal(err)
			}
			_, rs, err := mapdb.RunRoundsFull(mapdb.RoundsConfig{Profile: prof, Seed: 1, Rounds: 1}, mapdb.NewStore(0, nil))
			if err != nil {
				t.Fatal(err)
			}
			rounds := &World{s: rs}

			for vp := range want {
				fresh := NewWorld(prof, 1)
				for _, got := range []struct {
					how  string
					w    *World
					rep  *Report
					solo bool
				}{
					{"MapBorders in VP order", ordered, ordered.MapBorders(vp), true},
					{"MapBorders on a fresh world", fresh, fresh.MapBorders(vp), true},
					{"RunFleet(Workers: 4)", fleet, fleetReps[vp], false},
					{"RunRounds round 0", rounds, rounds.buildReport(rs.Results[vp]), false},
				} {
					if wl, gl := goldenLinks(want[vp]), goldenLinks(got.rep); !reflect.DeepEqual(wl, gl) {
						t.Errorf("vp %d: %s: %d links, MapAll %d", vp, got.how, len(gl), len(wl))
					}
					if !reflect.DeepEqual(ownerRows(want[vp]), ownerRows(got.rep)) {
						t.Errorf("vp %d: %s: owner attributions diverge from MapAll", vp, got.how)
					}
					wd, gd := ref.s.Datasets[vp], got.w.s.Datasets[vp]
					if wf, gf := wd.TraceFingerprint(), gd.TraceFingerprint(); wf != gf {
						t.Errorf("vp %d: %s: dataset trace fingerprint %016x, MapAll %016x", vp, got.how, gf, wf)
					}
					ws, gs := wd.Stats, gd.Stats
					if got.solo {
						switch {
						case gs.SimDuration < ws.SimDuration:
							t.Errorf("vp %d: %s: simulated %v, less than MapAll's %v", vp, got.how, gs.SimDuration, ws.SimDuration)
						case vp == 0 && gs.SimDuration != ws.SimDuration:
							t.Errorf("vp 0: %s: simulated %v, MapAll %v", got.how, gs.SimDuration, ws.SimDuration)
						}
						gs.SimDuration = ws.SimDuration
					}
					if ws != gs {
						t.Errorf("vp %d: %s: run stats diverge\n got %+v\nwant %+v", vp, got.how, gd.Stats, wd.Stats)
					}
				}
			}
			if len(want) == 1 {
				if of, rf := ordered.TraceFingerprint(), ref.TraceFingerprint(); of != rf {
					t.Errorf("world trace fingerprint: MapBorders in VP order %s, MapAll %s", of, rf)
				}
			}
		})
	}
}
