package bdrmap

import (
	"fmt"
	"testing"

	"bdrmap/internal/eval"
	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// TestSplicedTracesMatchFullWalks is the local stop set's exactness
// property. On every built-in profile, seeds 1–3, and the 4-VP
// large-access world, every trace the driver recorded by resuming from a
// prior (Spliced > 0) equals a walk from TTL 1 toward the same destination
// on a fresh lane: TTLs, addresses and types hop by hop, Stopped and
// Reached. The fresh walk's stop set holds the recorded trace's last
// address when it stopped and nothing otherwise: a walk the stop set
// halted met no stop-set address before its last hop, and one it did not
// halt met none at all.
//
// A prior is only exact for the routed prefix its trace went toward: the
// network spreads parallel links per prefix, so a trace toward another
// prefix of the same target may have crossed another link below the hop
// a resumed walk matches, and this test fails when the driver splices
// from any earlier trace of the target.
func TestSplicedTracesMatchFullWalks(t *testing.T) {
	type world struct {
		prof topo.Profile
		seed int64
	}
	var worlds []world
	for _, prof := range topo.BuiltinProfiles() {
		for seed := int64(1); seed <= 3; seed++ {
			worlds = append(worlds, world{prof, seed})
		}
	}
	coldMap := topo.LargeAccessProfile()
	coldMap.NumVPs = 4
	worlds = append(worlds, world{coldMap, 1})

	spliced := 0
	for _, w := range worlds {
		t.Run(fmt.Sprintf("%s-%dvp/%d", w.prof.Name, w.prof.NumVPs, w.seed), func(t *testing.T) {
			if testing.Short() && w.prof.Name != "tiny" && w.prof.Name != "r&e" {
				t.Skip("-short: tiny and r&e only")
			}
			s := eval.Build(w.prof, w.seed)
			s.RunAll()
			e := s.Engine.Fork()
			for i, ds := range s.Datasets {
				for _, tr := range ds.Traces {
					if tr.Spliced == 0 {
						continue
					}
					spliced++
					var stop map[netx.Addr]bool
					if tr.Stopped {
						stop = map[netx.Addr]bool{tr.Hops[len(tr.Hops)-1].Addr: true}
					}
					full := e.NewLane(s.Net.VPs[i], 0).Trace(tr.Dst, stop, nil)
					if !sameWalk(tr.TraceResult, full) {
						t.Fatalf("%s → %v copied %d hops: %v (stopped %t, reached %t); a walk from TTL 1 records %v (stopped %t, reached %t)",
							ds.VPName, tr.Dst, tr.Spliced, tr.Hops, tr.Stopped, tr.Reached, full.Hops, full.Stopped, full.Reached)
					}
				}
			}
		})
	}
	if spliced == 0 && !t.Failed() {
		t.Fatal("no trace was spliced: the property went untested")
	}
}

// sameWalk reports whether two traces recorded the same hops (TTL, type,
// address) and end.
func sameWalk(a, b probe.TraceResult) bool {
	if a.Stopped != b.Stopped || a.Reached != b.Reached || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i, h := range a.Hops {
		if g := b.Hops[i]; h.TTL != g.TTL || h.Type != g.Type || h.Addr != g.Addr {
			return false
		}
	}
	return true
}
