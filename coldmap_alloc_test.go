//go:build !race

package bdrmap

import (
	"runtime"
	"testing"

	"bdrmap/internal/eval"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// The race detector instruments allocation and changes what the runtime
// counts, so the cold map's budget is measured without it (CI runs it in
// its own step).

// TestColdMapAllocBudget pins what one cold map costs the heap: the
// benchmark's cold-map operation, eval.Build → RunFleet(Workers: 1) →
// mapdb.Compile on large-access with four VPs. A first map warms the
// arenas core.Infer and the scamper driver keep between calls; of three
// maps after it the cheapest counts, so a collection that empties a pool
// mid-map does not. Built with Go 1.24 a map measures 17 739 KB and
// 105 314 objects: the scenario carries no provenance tracer, which only
// the World attaches (19 932 KB and 105 704 objects while eval.Build
// attached one to every scenario, 22 715 KB and 109 051 before the
// driver's stages drew their scratch memory from an arena). The budget is
// 3 % over that, less
// than relationship inference copying the view's paths (2.3 MB), each VP
// deriving the probing plan (1 MB), the driver's stages making their
// scratch memory again (record slabs, target slots, alias edge index and
// lane router tables, ≈2.8 MB), a walk allocating its own entry and steps
// again (2 objects a walk, ≈24 400 a map) or span rings growing to take
// each batch (1.4 MB) would add back.
func TestColdMapAllocBudget(t *testing.T) {
	const budgetBytes, budgetObjects = 18270 << 10, 108500
	prof := topo.LargeAccessProfile()
	prof.NumVPs = 4
	coldMap := func() {
		s := eval.Build(prof, 1)
		if _, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		mapdb.Compile(s.Net.HostASN, s.Results)
	}
	coldMap()
	bytes, objects := uint64(1<<63), uint64(1<<63)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		coldMap()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("one cold map: %d KB, %d objects (budget %d KB, %d objects)", bytes>>10, objects, budgetBytes>>10, budgetObjects)
	if bytes > budgetBytes {
		t.Errorf("a cold map allocates %d KB, budget %d KB", bytes>>10, budgetBytes>>10)
	}
	if objects > budgetObjects {
		t.Errorf("a cold map allocates %d objects, budget %d", objects, budgetObjects)
	}
}
