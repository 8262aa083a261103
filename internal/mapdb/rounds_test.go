package mapdb

import (
	"reflect"
	"strings"
	"testing"

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
