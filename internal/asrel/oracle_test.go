package asrel

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"bdrmap/internal/bgp"
	"bdrmap/internal/topo"
)

// sameInference fails the test unless Infer and the per-path oracle agree
// on every relationship, neighbor list and clique member of n's view.
func sameInference(t *testing.T, n *topo.Network) {
	t.Helper()
	view := bgp.Collect(bgp.NewTable(n), bgp.DefaultVantages(n))
	got := Infer(view)
	want, wantNbrs := inferOracle(view)
	for _, a := range n.ASNs() {
		if !slices.Equal(got.Neighbors(a), wantNbrs[a]) {
			t.Fatalf("AS%d: neighbors %v, per-path inference gives %v", a, got.Neighbors(a), wantNbrs[a])
		}
	}
	switch {
	case !reflect.DeepEqual(got.clique, want.clique):
		t.Fatalf("clique %v, per-path inference gives %v", got.clique, want.clique)
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
// the view's paths where they lie, on its AS indexes, and kept one edge id
// per hop and a map of edge ids; they cost
//
//	tiny            25 473 B    153 objects
//	r&e            188 744 B    494 objects
//	large-access 1 518 068 B  1 263 objects  (4 VPs)
//
// where copying every hop, path end and prefix count onto indexes of its
// own numbering cost 47 185 B, 406 811 B and 3 788 505 B. A link is now
// named by its entry in the view's neighbor lists, looked up per hop past
// a one-entry memo per AS, and the neighbor lists are the view's:
//
//	tiny             5 561 B     48 objects
//	r&e             26 137 B     63 objects
//	large-access    82 865 B     65 objects  (4 VPs)
//
// The budgets are 1.5 × these figures.
func TestRelInferAllocBudget(t *testing.T) {
	la4 := topo.LargeAccessProfile()
	la4.NumVPs = 4
	for _, tc := range []struct {
		prof           topo.Profile
		bytes, objects uint64
	}{
		{topo.TinyProfile(), 5561 * 3 / 2, 48 * 3 / 2},
		{topo.REProfile(), 26137 * 3 / 2, 63 * 3 / 2},
		{la4, 82865 * 3 / 2, 65 * 3 / 2},
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
