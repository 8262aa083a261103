//go:build !race

package eval

import (
	"runtime"
	"testing"

	"bdrmap/internal/asrel"
	"bdrmap/internal/bgp"
	"bdrmap/internal/rir"
	"bdrmap/internal/sibling"
	"bdrmap/internal/topo"
)

// stepCost is what one derivation step costs the heap: the bytes it
// allocates and the bytes of them still live after a collection.
type stepCost struct{ alloc, kept int64 }

// measureStep runs step three times and returns the least it allocated and
// the least it kept. Kept is read from the live heap after two collections
// on either side, with step's result, and what prep made for it, held
// across the second. What prep makes is not counted: Collect's table is
// made there, a fresh one each run, so the collect step counts only what
// Collect adds (the RIBs it fills and the view).
func measureStep(prep func() any, step func(any) any) stepCost {
	best := stepCost{1 << 62, 1 << 62}
	for range 3 {
		var in any
		if prep != nil {
			in = prep()
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		out := step(in)
		runtime.ReadMemStats(&after)
		alloc := int64(after.TotalAlloc - before.TotalAlloc)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		kept := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		runtime.KeepAlive(out)
		runtime.KeepAlive(in)
		best.alloc = min(best.alloc, alloc)
		best.kept = min(best.kept, kept)
	}
	return best
}

// TestWorldDerivationAllocBudget pins, per step of the world derivation
// eval.BuildFromNetwork runs (and topo.Generate before it on large-access),
// the bytes the step allocates and the bytes it keeps: on large-access with
// four VPs, the cold map's world, and on r&e, which the round loop derives
// again every round (after Build, on a network it has just mutated). A
// warm-up derivation runs first. Built with Go 1.24 the steps measure, in
// KB allocated / kept:
//
//	             large-access            r&e
//	             before     after        before    after
//	generate   2410/1545  1865/1360        —         —
//	build       523/0      203/0        147/0      63/0
//	table      1252/519    537/507      338/151   148/140
//	collect    3479/3326  3262/3242     675/630   621/611
//	asrel      1482/121     81/27       184/29     26/7
//	rir        1229/545    212/193      306/160    64/59
//	sibling     121/53      64/53        35/13     20/13
//
// Before, the table formed atoms through a map of origin lists and a map
// of keys and copied every AS's neighbors, relationship inference kept an
// edge id per hop of every path (1.2 MB on large-access) and a map of edge
// ids, the delegation table copied every record into a per-organization
// map, each AS kept its neighbors in a map of its own, and Build grew its
// indexes by appending. The garbage — allocated less kept, summed over the
// steps after build — was 3 871 KB on large-access and 556 KB on r&e; it
// is now 637 KB and 47 KB, and its budgets are 5 % over that. Build's kept
// figure is zero because it replaces indexes the network already holds,
// so it is left out of the sum. Each step's budgets are 5 % over its
// figures. The race detector changes what the runtime allocates, so the
// file is built without it (CI runs it in the allocation budgets step).
func TestWorldDerivationAllocBudget(t *testing.T) {
	type figure struct{ alloc, kept int64 } // KB
	large := topo.LargeAccessProfile()
	large.NumVPs = 4
	for _, tc := range []struct {
		prof    topo.Profile
		figures map[string]figure
		garbage int64 // KB
	}{
		{large, map[string]figure{
			"generate": {1865, 1360}, "build": {203, 0}, "table": {537, 507},
			"collect": {3262, 3242}, "asrel": {81, 27}, "rir": {212, 193}, "sibling": {64, 53},
		}, 637},
		{topo.REProfile(), map[string]figure{
			"build": {63, 0}, "table": {148, 140},
			"collect": {621, 611}, "asrel": {26, 7}, "rir": {64, 59}, "sibling": {20, 13},
		}, 47},
	} {
		n := topo.Generate(tc.prof, 1)
		BuildFromNetwork(n, 1) // warm-up
		view := bgp.Collect(bgp.NewTable(n), bgp.DefaultVantages(n))
		steps := []struct {
			name string
			prep func() any
			run  func(any) any
		}{
			{"generate", nil, func(any) any { return topo.Generate(tc.prof, 1) }},
			{"build", nil, func(any) any { n.Build(); return nil }},
			{"table", nil, func(any) any { return bgp.NewTable(n) }},
			{"collect", func() any { return bgp.NewTable(n) }, func(tab any) any {
				return bgp.Collect(tab.(*bgp.Table), bgp.DefaultVantages(n))
			}},
			{"asrel", nil, func(any) any { return asrel.Infer(view) }},
			{"rir", nil, func(any) any { return rir.FromNetwork(n) }},
			{"sibling", nil, func(any) any {
				s := sibling.FromNetwork(n, 1)
				s.CurateHost(n)
				return s
			}},
		}
		limit := func(kb int64) int64 { return (kb + kb/20 + 1) << 10 }
		var garbage int64
		for _, st := range steps {
			fig, ok := tc.figures[st.name]
			if !ok {
				continue
			}
			c := measureStep(st.prep, st.run)
			if st.name != "build" {
				garbage += c.alloc - c.kept
			}
			t.Logf("%s %-8s %5d KB allocated %5d KB kept (figures %d / %d KB)", tc.prof.Name, st.name, c.alloc>>10, c.kept>>10, fig.alloc, fig.kept)
			if c.alloc > limit(fig.alloc) {
				t.Errorf("%s %s allocates %d KB, budget %d KB", tc.prof.Name, st.name, c.alloc>>10, limit(fig.alloc)>>10)
			}
			if c.kept > limit(fig.kept) {
				t.Errorf("%s %s keeps %d KB, budget %d KB", tc.prof.Name, st.name, c.kept>>10, limit(fig.kept)>>10)
			}
		}
		t.Logf("%s garbage %d KB (figure %d KB)", tc.prof.Name, garbage>>10, tc.garbage)
		if garbage > limit(tc.garbage) {
			t.Errorf("%s derivation leaves %d KB of garbage, budget %d KB", tc.prof.Name, garbage>>10, limit(tc.garbage)>>10)
		}
	}
}
