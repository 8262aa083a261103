package eval

import (
	"testing"

	"bdrmap/internal/topo"
)

// TestAliasVerdictsMatchTruth checks every VP resolver's alias evidence
// against ground truth: every positive joins two interfaces of one true
// router, and every negative on one true router sits on a router whose
// interfaces keep their own IP-ID counters, which Ally rejects by design.
func TestAliasVerdictsMatchTruth(t *testing.T) {
	type world struct {
		prof topo.Profile
		seed int64
	}
	var worlds []world
	for _, prof := range topo.BuiltinProfiles() {
		if testing.Short() && prof.Name != "tiny" && prof.Name != "r&e" {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			worlds = append(worlds, world{prof, seed})
		}
	}
	if !testing.Short() {
		coldMap := topo.LargeAccessProfile()
		coldMap.NumVPs = 4
		worlds = append(worlds, world{coldMap, 1})
	}
	var pos, neg, negSplit int
	for _, w := range worlds {
		s := Build(w.prof, w.seed)
		s.RunAll()
		for vp, ds := range s.Datasets {
			for _, p := range ds.Resolver.Positives() {
				pos++
				ra, rb := s.Net.RouterByAddr(p[0]), s.Net.RouterByAddr(p[1])
				if ra == nil || ra != rb {
					t.Errorf("%s seed %d VP %d: positive %v|%v joins routers %v and %v",
						w.prof.Name, w.seed, vp, p[0], p[1], routerID(ra), routerID(rb))
				}
			}
			for _, p := range ds.Resolver.Negatives() {
				neg++
				ra := s.Net.RouterByAddr(p[0])
				if ra == nil || ra != s.Net.RouterByAddr(p[1]) {
					continue
				}
				negSplit++
				if ra.Behavior.IPID != topo.IPIDPerIface {
					t.Errorf("%s seed %d VP %d: negative %v|%v splits router %d with %v IP-IDs",
						w.prof.Name, w.seed, vp, p[0], p[1], ra.ID, ra.Behavior.IPID)
				}
			}
		}
	}
	t.Logf("%d worlds: %d positives, %d negatives, %d of them on one (per-interface) router",
		len(worlds), pos, neg, negSplit)
	if pos == 0 {
		t.Error("no positive alias verdict")
	}
}

// routerID names a router for a failure message, -1 for no router.
func routerID(r *topo.Router) topo.RouterID {
	if r == nil {
		return -1
	}
	return r.ID
}
