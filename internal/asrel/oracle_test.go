package asrel

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"bdrmap/internal/bgp"
	"bdrmap/internal/topo"
)

// sameInference fails the test unless Infer and the per-path oracle agree
// on every relationship, neighbor list and clique member of n's view.
func sameInference(t *testing.T, n *topo.Network) {
	t.Helper()
	view := bgp.Collect(bgp.NewTable(n), bgp.DefaultVantages(n))
	got, want := Infer(view), inferOracle(view)
	switch {
	case !reflect.DeepEqual(got.clique, want.clique):
		t.Fatalf("clique %v, per-path inference gives %v", got.clique, want.clique)
	case !reflect.DeepEqual(got.nbrs, want.nbrs):
		t.Fatal("neighbor lists differ from the per-path inference")
	case !reflect.DeepEqual(got.rels, want.rels):
		for k, w := range want.rels {
			if g := got.rels[k]; g != w {
				t.Errorf("AS%d–AS%d inferred %v, per-path inference gives %v", k[0], k[1], g, w)
			}
		}
		t.Fatalf("%d relationships, per-path inference gives %d", len(got.rels), len(want.rels))
	}
}

// TestInferMatchesPerPathOracle: visiting each distinct path once with its
// prefix count, on dense indexes, infers exactly what walking every
// (prefix, vantage) path through the maps did — on every built-in world,
// and on one that six rounds of provisioning churn have reshaped.
func TestInferMatchesPerPathOracle(t *testing.T) {
	profiles := topo.BuiltinProfiles()
	if testing.Short() {
		profiles = []topo.Profile{topo.TinyProfile(), topo.REProfile()}
	}
	for _, prof := range profiles {
		t.Run(prof.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				sameInference(t, topo.Generate(prof, seed))
			}
		})
	}
	t.Run("r&e after churn", func(t *testing.T) {
		n := topo.Generate(topo.REProfile(), 1)
		rng := rand.New(rand.NewSource(1))
		for r := 1; r <= 6; r++ {
			if r%2 == 1 {
				border := n.InterdomainLinks(n.HostASN)[0].NearRtr
				if _, err := topo.AttachCustomer(n, border, topo.ASN(65000+r)); err != nil {
					t.Fatal(err)
				}
			} else {
				links := n.InterdomainLinks(n.HostASN)
				topo.Depeer(n, links[rng.Intn(len(links))].FarAS)
			}
			n.Build()
			sameInference(t, n)
		}
	})
}

// TestRelInferAllocBudget pins what relationship inference costs the heap.
// The map-based inference allocated less itself (tiny 21 KB, r&e 114 KB,
// large-access 437 KB) but read the view expanded to one ASPath per
// (prefix, vantage) — 57 KB, 476 KB and 6.3 MB more — which nothing on the
// build path makes any more. The dense tables that replaced the maps read
// the view's paths where they lie, on its AS indexes, and keep one edge id
// per hop; they cost
//
//	tiny            25 473 B    153 objects
//	r&e            188 744 B    494 objects
//	large-access 1 518 068 B  1 263 objects  (4 VPs)
//
// where copying every hop, path end and prefix count onto indexes of its
// own numbering cost 47 185 B, 406 811 B and 3 788 505 B. The budgets are
// 1.5 × the figures above.
func TestRelInferAllocBudget(t *testing.T) {
	la4 := topo.LargeAccessProfile()
	la4.NumVPs = 4
	for _, tc := range []struct {
		prof           topo.Profile
		bytes, objects uint64
	}{
		{topo.TinyProfile(), 25473 * 3 / 2, 153 * 3 / 2},
		{topo.REProfile(), 188744 * 3 / 2, 494 * 3 / 2},
		{la4, 1518068 * 3 / 2, 1263 * 3 / 2},
	} {
		n := topo.Generate(tc.prof, 1)
		view := bgp.Collect(bgp.NewTable(n), bgp.DefaultVantages(n))
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			Infer(view)
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		objects := (after.Mallocs - before.Mallocs) / runs
		t.Logf("%s: %d B, %d objects per Infer (budget %d B, %d objects)", tc.prof.Name, bytes, objects, tc.bytes, tc.objects)
		if bytes > tc.bytes {
			t.Errorf("%s: Infer allocates %d B, budget %d", tc.prof.Name, bytes, tc.bytes)
		}
		if objects > tc.objects {
			t.Errorf("%s: Infer allocates %d objects, budget %d", tc.prof.Name, objects, tc.objects)
		}
	}
}
