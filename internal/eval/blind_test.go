package eval

import (
	"testing"

	"bdrmap/internal/topo"
)

// TestAllyBlindOnlyOnCounterlessRouters checks the blind set against
// ground truth: every address any VP's resolver marked blind sits on a
// router whose IP-IDs are random or zero, never on one with a counter.
func TestAllyBlindOnlyOnCounterlessRouters(t *testing.T) {
	marks := map[topo.IPIDMode]int{}
	for _, prof := range topo.BuiltinProfiles() {
		if testing.Short() && prof.Name != "tiny" && prof.Name != "r&e" {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			s := Build(prof, seed)
			s.RunAll()
			for _, r := range s.Net.Routers {
				for _, ifc := range r.Ifaces {
					for vp, ds := range s.Datasets {
						if !ds.Resolver.Blind(ifc.Addr) {
							continue
						}
						marks[r.Behavior.IPID]++
						if m := r.Behavior.IPID; m != topo.IPIDRandom && m != topo.IPIDZero {
							t.Errorf("%s seed %d VP %d: %v marked blind on router %d with %v IP-IDs",
								prof.Name, seed, vp, ifc.Addr, r.ID, m)
						}
					}
				}
			}
		}
	}
	t.Logf("blind marks: %d random, %d zero, %d shared, %d per-interface",
		marks[topo.IPIDRandom], marks[topo.IPIDZero], marks[topo.IPIDShared], marks[topo.IPIDPerIface])
	if marks[topo.IPIDRandom] == 0 || marks[topo.IPIDZero] == 0 {
		t.Error("no address marked blind on a random- or zero-IPID router")
	}
}

// TestAllyBlindCounter drives driver.alias.ally_blind on the benchmark's
// cold-map world (large-access, 4 VPs): it counts the pairs Ally ended on
// a blind address, a subset of the pairs left unknown. Beside it,
// driver.alias.answers_reused counts the probes the resolvers' answers
// stood in for: at least the sweep's UDP answers Mercator read back.
func TestAllyBlindCounter(t *testing.T) {
	prof := topo.LargeAccessProfile()
	prof.NumVPs = 4
	s := Build(prof, 1)
	s.RunAll()
	c := s.Obs.Snapshot().Counters
	blind, unknown := c["driver.alias.ally_blind"], c["driver.alias.pairs.unknown"]
	t.Logf("ally_blind %d of pairs.unknown %d", blind, unknown)
	if blind == 0 || blind > unknown {
		t.Fatalf("ally_blind = %d, want in (0, pairs.unknown = %d]", blind, unknown)
	}
	reused := c["driver.alias.answers_reused"]
	t.Logf("answers_reused %d beside %d probes sent", reused, c["probe.probes"])
	if reused <= 0 {
		t.Fatalf("answers_reused = %d, want > 0", reused)
	}
}
