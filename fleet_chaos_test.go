package bdrmap

// fleet_chaos_test.go is the coordinator half of the chaos suite: a VP
// straggles behind quorum and the FLEET must publish without it, then heal.
// The straggler tests pin the quorum-publish semantics end to end through
// mapdb: the partial generation names the late VP degraded, and the
// follow-up full generation heals it with an additions-only GenDiff.

import (
	"reflect"
	"testing"
	"time"

	"bdrmap/internal/eval"
	"bdrmap/internal/fleet"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/scamper"
)

// TestFleetStragglerQuorumHealsGenDiff gates one of regional-vp's three
// VPs behind a channel so it cannot finish before quorum. The quorum-time
// partial generation must mark exactly that VP degraded in the published
// mapdb snapshot, and the final full generation must heal it with a
// GenDiff that only adds — nothing served by the partial generation may
// vanish or change owner.
func TestFleetStragglerQuorumHealsGenDiff(t *testing.T) {
	world := NewWorld(RegionalVP(), 1)
	s := world.Scenario()
	store := mapdb.NewStore(0, s.Obs)
	straggler := s.Net.VPs[2].Name
	release := make(chan struct{})

	done := make(chan error, 1)
	go func() {
		_, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{
			Workers: 3,
			Quorum:  2,
			Gate: func(vp int) {
				if vp == 2 {
					<-release
				}
			},
			OnPublish: func(ev fleet.PublishEvent) {
				snap := mapdb.Compile(s.Net.HostASN, ev.Results)
				if !ev.Final {
					snap.MarkDegraded(ev.Degraded)
				}
				store.Publish(snap)
				if !ev.Final {
					close(release) // let the straggler finish only after the partial is out
				}
			},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("quorum fleet hung past the 60s watchdog")
	}

	partial, ok := store.Generation(1)
	if !ok {
		t.Fatal("quorum publish never reached the store")
	}
	if !partial.Partial() {
		t.Error("quorum-time generation not marked partial")
	}
	if got := partial.Degraded(); !reflect.DeepEqual(got, []string{straggler}) {
		t.Errorf("degraded VPs = %v, want [%s]", got, straggler)
	}
	final, ok := store.Generation(2)
	if !ok {
		t.Fatal("final generation never reached the store")
	}
	if final.Partial() {
		t.Errorf("final generation still marked partial (degraded %v)", final.Degraded())
	}
	if len(final.VPs()) != 3 {
		t.Errorf("final generation compiled %d VPs, want 3", len(final.VPs()))
	}

	d, err := store.Diff(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Removed) != 0 || len(d.NeighborsRemoved) != 0 {
		t.Errorf("healing diff removed %d link(s) and %d neighbor(s); a late VP must only add",
			len(d.Removed), len(d.NeighborsRemoved))
	}
	if len(d.OwnerChanges) != 0 {
		t.Errorf("healing diff changed %d owner attribution(s): %v", len(d.OwnerChanges), d.OwnerChanges)
	}

	m := world.Snapshot()
	if got := m.Counter("fleet.publish.partial"); got != 1 {
		t.Errorf("fleet.publish.partial = %d, want 1", got)
	}
	if got := m.Counter("fleet.degraded.at_quorum"); got != 1 {
		t.Errorf("fleet.degraded.at_quorum = %d, want 1", got)
	}
}

// TestFleetStragglerDegradedDiffMarks pins the degraded-artifact marks on
// GenDiff end to end through the fleet: a full generation, then a
// quorum-gated rerun of the identical world publishing a partial and its
// healed successor. The straggler's links vanish in the full→partial diff
// and reappear in partial→full — churn that is a measurement artifact, not
// a border moving — so both diffs touching the partial must report
// Degraded() with the straggler named, while the full→full diff spanning
// it is unmarked and empty. A consumer discounting marked frames (tslpmon
// -watch) therefore sees zero flaps from the whole episode.
func TestFleetStragglerDegradedDiffMarks(t *testing.T) {
	store := mapdb.NewStore(0, nil)
	var straggler string

	// Generation 1: all three VPs, fault-free.
	{
		s := NewWorld(RegionalVP(), 1).Scenario()
		if _, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{Workers: 3}); err != nil {
			t.Fatal(err)
		}
		store.Publish(mapdb.Compile(s.Net.HostASN, s.Results))
	}

	// Generations 2 (quorum partial, VP 2 gated) and 3 (healed): the same
	// world regenerated, so the healed map is byte-identical to gen 1.
	{
		s := NewWorld(RegionalVP(), 1).Scenario()
		straggler = s.Net.VPs[2].Name
		release := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			_, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{
				Workers: 3,
				Quorum:  2,
				Gate: func(vp int) {
					if vp == 2 {
						<-release
					}
				},
				OnPublish: func(ev fleet.PublishEvent) {
					snap := mapdb.Compile(s.Net.HostASN, ev.Results)
					if !ev.Final {
						snap.MarkDegraded(ev.Degraded)
					}
					store.Publish(snap)
					if !ev.Final {
						close(release)
					}
				},
			})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("quorum fleet hung past the 60s watchdog")
		}
	}

	into, err := store.Diff(1, 2) // full → partial
	if err != nil {
		t.Fatal(err)
	}
	if into.FromPartial || !into.ToPartial {
		t.Errorf("full→partial diff marks: FromPartial=%v ToPartial=%v, want false/true",
			into.FromPartial, into.ToPartial)
	}
	if !into.Degraded() {
		t.Error("full→partial diff not marked Degraded()")
	}
	if !reflect.DeepEqual(into.DegradedVPs, []string{straggler}) {
		t.Errorf("full→partial DegradedVPs = %v, want [%s]", into.DegradedVPs, straggler)
	}
	if len(into.Removed) == 0 {
		t.Error("straggler's links did not vanish in the partial — the artifact churn these marks exist for")
	}

	out, err := store.Diff(2, 3) // partial → healed
	if err != nil {
		t.Fatal(err)
	}
	if !out.FromPartial || out.ToPartial {
		t.Errorf("partial→full diff marks: FromPartial=%v ToPartial=%v, want true/false",
			out.FromPartial, out.ToPartial)
	}
	if !out.Degraded() {
		t.Error("partial→full diff not marked Degraded()")
	}

	span, err := store.Diff(1, 3) // full → full, spanning the partial
	if err != nil {
		t.Fatal(err)
	}
	if span.Degraded() {
		t.Errorf("full→full spanning diff marked degraded (DegradedVPs %v): the artifact leaked past the episode",
			span.DegradedVPs)
	}
	if !span.Empty() {
		t.Errorf("full→full spanning diff not empty: +%d/-%d links, %d owner change(s) — identical worlds must produce identical maps",
			len(span.Added), len(span.Removed), len(span.OwnerChanges))
	}
}
