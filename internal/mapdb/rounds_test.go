package mapdb

import (
	"reflect"
	"strings"
	"testing"

	"bdrmap/internal/bgp"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

func TestRunRoundsDeterministicChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round pipeline run")
	}
	run := func() ([]RoundEvent, *Store) {
		st := NewStore(0, obs.New())
		ev, err := RunRounds(RoundsConfig{Profile: topo.TinyProfile(), Seed: 1, Rounds: 3}, st)
		if err != nil {
			t.Fatal(err)
		}
		return ev, st
	}
	ev, st := run()
	if len(ev) != 3 {
		t.Fatalf("events = %v, want 3", ev)
	}
	if got := st.Generations(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("generations = %v", got)
	}

	// Round 2 attaches customer AS65001: the diff 1->2 must gain it.
	d, err := st.Diff(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	foundNew := false
	for _, a := range d.NeighborsAdded {
		if a == 65001 {
			foundNew = true
		}
	}
	if !foundNew {
		t.Fatalf("gen 2 diff did not gain AS65001: %+v (event %q)", d, ev[1].Action)
	}
	// Round 3 de-provisions one neighbor: the diff 2->3 must lose links.
	d, err = st.Diff(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Removed) == 0 {
		t.Fatalf("gen 3 diff removed nothing (event %q)", ev[2].Action)
	}

	// The whole run — churn schedule included — is deterministic.
	ev2, st2 := run()
	if !reflect.DeepEqual(ev, ev2) {
		t.Fatalf("churn schedules differ:\n%v\n%v", ev, ev2)
	}
	for g := 1; g <= 3; g++ {
		a, _ := st.Generation(g)
		b, _ := st2.Generation(g)
		if !reflect.DeepEqual(a.Links(), b.Links()) {
			t.Fatalf("generation %d link sets differ across runs", g)
		}
	}
	if err := func() error {
		_, err := RunRounds(RoundsConfig{Profile: topo.TinyProfile(), Seed: 1, Rounds: 0}, st)
		return err
	}(); err == nil {
		t.Error("Rounds:0 accepted")
	}
}

// TestRunRoundsOnProfilesNumberedPast65000 is the regression test for
// mutateWorld's customer ASN: tier1 and large-access already have an
// AS65001, so round 2's attach must pick the next unused number instead of
// failing with "already exists". Verify re-runs every round from scratch
// on a shadow world mutated the same way and compares byte for byte.
func TestRunRoundsOnProfilesNumberedPast65000(t *testing.T) {
	profs := []topo.Profile{topo.Tier1Profile()}
	if !testing.Short() {
		la := topo.LargeAccessProfile()
		la.NumVPs = 4 // the world the benchmark maps; all 19 VPs take 5× as long
		profs = append(profs, la)
	}
	for _, prof := range profs {
		if topo.Generate(prof, 1).ASes[65001] == nil {
			t.Fatalf("%s no longer has an AS65001: the test would not exercise the collision", prof.Name)
		}
		ev, err := RunRounds(RoundsConfig{Profile: prof, Seed: 1, Rounds: 3, Incremental: true, Verify: true}, NewStore(0, nil))
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if len(ev) != 3 || !strings.HasPrefix(ev[1].Action, "attached customer AS") {
			t.Fatalf("%s: events %+v, want 3 with round 2 attaching a customer", prof.Name, ev)
		}
	}
}

// TestRoundsRepartitionAtomsAfterChurn: every round builds its table from
// the mutated world, so the announcement atoms are partitioned afresh — a
// round that attaches a customer AS and its prefix routes that prefix from
// an atom of its own, not from a RIB shared with the previous world. The
// measurement itself must not notice atoms at all: the TraceFP sequence is
// the one the per-prefix tables produced, and Verify re-measures every
// round from scratch against the incremental run.
func TestRoundsRepartitionAtomsAfterChurn(t *testing.T) {
	prof := topo.REProfile()
	ev, s, err := RunRoundsFull(RoundsConfig{Profile: prof, Seed: 1, Rounds: 2, Incremental: true, Verify: true}, NewStore(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0x63bcf9063ee6f6da, 0x1dbbdb268e8d4d58}
	if len(ev) != len(want) || !strings.HasPrefix(ev[1].Action, "attached customer AS65001") {
		t.Fatalf("events %+v, want %d with round 2 attaching AS65001", ev, len(want))
	}
	for i, e := range ev {
		if e.TraceFP != want[i] {
			t.Errorf("round %d: trace fingerprint %016x, want %016x", i, e.TraceFP, want[i])
		}
	}

	base := bgp.NewTable(topo.Generate(prof, 1))
	if got := s.Tab.Atoms(); got != base.Atoms()+1 {
		t.Errorf("%d atoms after the attach, want the baseline's %d and one more", got, base.Atoms())
	}
	added := s.Net.ASes[65001]
	if added == nil || len(added.Prefixes) == 0 {
		t.Fatal("AS65001 or its prefix missing from the round's world")
	}
	rib := s.Tab.Routes(added.Prefixes[0])
	if c, _, _ := rib.At(s.Tab.IndexOf(65001)); c != bgp.ClassOrigin {
		t.Errorf("the new prefix's RIB has class %v at its origin AS65001", c)
	}
	for _, p := range base.Prefixes() {
		if s.Tab.Routes(p) == rib {
			t.Fatalf("the new prefix shares a RIB with %v of the previous world", p)
		}
	}
}

// TestRoundsBuildStageSpan: what a round pays before it measures — churn,
// topology rebuild, derived inputs — has a span of its own, so a traced
// run books it as a stage instead of as the round's self time: one "build"
// per round, under it, opened before the round's fleet span.
func TestRoundsBuildStageSpan(t *testing.T) {
	spans := obs.NewSpanLog(0)
	if _, err := RunRounds(RoundsConfig{Profile: topo.TinyProfile(), Seed: 1, Rounds: 3, Spans: spans}, NewStore(0, nil)); err != nil {
		t.Fatal(err)
	}
	builds, fleets := map[obs.SpanID]obs.SpanRecord{}, map[obs.SpanID]obs.SpanRecord{}
	var rounds []obs.SpanID
	for _, r := range spans.Records() {
		switch {
		case r.Name == "round":
			rounds = append(rounds, r.ID)
		case r.Name == "fleet":
			fleets[r.Parent] = r
		case r.Name == "stage" && r.Detail == "build":
			if _, dup := builds[r.Parent]; dup {
				t.Errorf("two build stages under span %d", r.Parent)
			}
			builds[r.Parent] = r
		}
	}
	if len(rounds) != 3 || len(builds) != 3 {
		t.Fatalf("%d round spans, %d build stages, want 3 of each", len(rounds), len(builds))
	}
	for _, id := range rounds {
		b, ok := builds[id]
		if !ok {
			t.Fatalf("round span %d has no build stage", id)
		}
		if f := fleets[id]; b.ID >= f.ID {
			t.Errorf("round span %d: build stage %d not begun before fleet span %d", id, b.ID, f.ID)
		}
		if b.Attr("atoms") == "" || b.Attr("prefixes") == "" {
			t.Errorf("build stage %d lacks atoms/prefixes attrs: %v", b.ID, b.Attrs)
		}
	}
}
