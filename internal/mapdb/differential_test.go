package mapdb

import (
	"math/rand"
	"reflect"
	"testing"

	"bdrmap/internal/eval"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// TestDifferentialRoundsSequentialVsFleet drives the rounds-golden churn
// schedule (same mutations as RunRounds) through the one-worker sequential
// coordinator and a four-worker fleet, each side handing one eval.Carry
// from round to round as RunRounds does — per-VP incremental state and
// one arena per worker, so every round after the first infers on arenas
// the last round warmed — and requires every published generation to be
// byte-identical:
// served links, owner attributions, and per-round trace fingerprints. The
// multi-VP profile makes the schedule real — three shards genuinely
// interleave on the fleet side.
func TestDifferentialRoundsSequentialVsFleet(t *testing.T) {
	const rounds = 3
	prof, ok := topo.ProfileByName("regional-vp")
	if !ok {
		t.Fatal("regional-vp profile missing")
	}
	run := func(workers int) (snaps []*Snapshot, fps []uint64) {
		n := topo.Generate(prof, 1)
		rng := rand.New(rand.NewSource(1 ^ 0x6d617064))
		carry := eval.NewCarry(len(n.VPs), true)
		for r := 0; r < rounds; r++ {
			if r > 0 {
				if _, err := mutateWorld(n, rng, r); err != nil {
					t.Fatal(err)
				}
				n.Build()
			}
			s := eval.BuildFromNetwork(n, 1)
			if _, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{
				Workers: workers, Carry: carry,
			}); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, Compile(n.HostASN, s.Results))
			fps = append(fps, roundFingerprint(s.Datasets))
		}
		return snaps, fps
	}

	seqSnaps, seqFPs := run(1)
	fltSnaps, fltFPs := run(4)
	for r := 0; r < rounds; r++ {
		if seqFPs[r] != fltFPs[r] {
			t.Errorf("round %d: trace fingerprints diverged: sequential %016x fleet %016x", r, seqFPs[r], fltFPs[r])
		}
		if !reflect.DeepEqual(seqSnaps[r].links, fltSnaps[r].links) {
			t.Errorf("round %d: link sets diverged (sequential %d, fleet %d links)",
				r, len(seqSnaps[r].links), len(fltSnaps[r].links))
		}
		if !reflect.DeepEqual(seqSnaps[r].ownerAddrs, fltSnaps[r].ownerAddrs) ||
			!reflect.DeepEqual(seqSnaps[r].owners, fltSnaps[r].owners) {
			t.Errorf("round %d: owner attributions diverged (sequential %d, fleet %d addrs)",
				r, len(seqSnaps[r].ownerAddrs), len(fltSnaps[r].ownerAddrs))
		}
		if t.Failed() {
			break
		}
	}
}
