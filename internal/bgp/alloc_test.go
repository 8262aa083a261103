package bgp

import (
	"runtime"
	"testing"

	"bdrmap/internal/topo"
)

// Alloc budgets for the candidate-set hot path. candidatesAt dominated
// scenario-build allocations (sort.Slice closures plus a fresh result
// slice per AS per prefix) before it moved to a pooled scratch buffer and
// an inline insertion sort; these tests pin the steady state at zero so
// the slab cannot silently regress.

// TestCandidatesAtAllocFree drives the scratch-buffer path directly: once
// the buffer has grown to the largest candidate set, a full sweep over
// every core AS of every cached RIB must not allocate.
func TestCandidatesAtAllocFree(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 1)
	tab := NewTable(n)
	ribs := make([]*PrefixRIB, 0, len(tab.Prefixes()))
	for _, p := range tab.Prefixes() {
		ribs = append(ribs, tab.Routes(p))
	}
	buf := make([]int32, 0, 16)
	avg := testing.AllocsPerRun(100, func() {
		for _, r := range ribs {
			for x := range tab.core {
				tab.candidatesAt(r, int32(x), &buf)
			}
		}
	})
	if avg != 0 {
		t.Errorf("candidatesAt sweep allocates %.1f objects/run, want 0", avg)
	}
}

// TestSuppressedAtAllocFree pins the public concurrent-safe lookup: with
// warm RIB cache and pool, SuppressedAt must serve from scratch buffers.
// The budget tolerates stray pool refills (a GC between runs empties
// sync.Pool) but catches the per-call slice+closure regime this replaced.
func TestSuppressedAtAllocFree(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 1)
	tab := NewTable(n)
	asns := n.ASNs()
	var ribs []*PrefixRIB
	for _, p := range tab.Prefixes() {
		ribs = append(ribs, tab.Routes(p))
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, r := range ribs {
			for _, a := range asns {
				tab.SuppressedAt(a, r)
			}
		}
	})
	if avg > 1 {
		t.Errorf("SuppressedAt sweep allocates %.1f objects/run, want ~0", avg)
	}
}

// TestCollectAllocBudget pins what one cold public view costs the heap:
// Collect(NewTable(n), DefaultVantages(n)). Before routing was asked once
// per announcement atom — a RIB per prefix, a path slice per (prefix,
// vantage), Paths grown by doubling — the same call measured
//
//	tiny  423 952 B    7 844 objects
//	r&e 7 309 945 B   66 942 objects
//
// and with one RIB per atom but an ASPath built per (prefix, vantage)
// 184 KB / 1 250 objects and 2.2 MB / 6 700 objects. A view now stores
// each atom's paths once, with a prefix count, and expands them only for
// whoever calls Paths, which measured
//
//	tiny  124 371 B    1 166 objects
//	r&e 1 696 000 B    6 296 objects
//
// With a RIB over the transit core only (stub routes are derived on read)
// it measured
//
//	tiny  109 520 B    1 174 objects
//	r&e 1 032 524 B    6 317 objects
//
// The table now forms its atoms without a map of origin lists or of keys
// and reads each AS's neighbors in place, and Collect sizes its link set
// from the table's session count and lays the neighbor lists out in one
// array: the figures below are what that measures, and the budgets are
// 1.5 × them. Each RIB worker beyond the first adds a goroutine's few
// objects.
//
//	tiny   79 044 B      715 objects
//	r&e   781 312 B    3 731 objects
func TestCollectAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		prof           topo.Profile
		bytes, objects uint64
	}{
		{topo.TinyProfile(), 79044 * 3 / 2, 715 * 3 / 2},
		{topo.REProfile(), 781312 * 3 / 2, 3731 * 3 / 2},
	} {
		n := topo.Generate(tc.prof, 1)
		vps := DefaultVantages(n)
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			Collect(NewTable(n), vps)
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		objects := (after.Mallocs - before.Mallocs) / runs
		t.Logf("%s: %d B, %d objects per Collect (budget %d B, %d objects)", tc.prof.Name, bytes, objects, tc.bytes, tc.objects)
		if bytes > tc.bytes {
			t.Errorf("%s: Collect allocates %d B, budget %d", tc.prof.Name, bytes, tc.bytes)
		}
		if objects > tc.objects {
			t.Errorf("%s: Collect allocates %d objects, budget %d", tc.prof.Name, objects, tc.objects)
		}
	}
}
