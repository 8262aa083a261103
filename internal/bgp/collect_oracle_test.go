package bgp_test

import (
	"slices"
	"testing"

	"bdrmap/internal/asrel"
	"bdrmap/internal/bgp"
	"bdrmap/internal/topo"
)

// TestCollectMatchesPerPrefixOracle: collecting once per atom yields the
// view the per-(prefix, vantage) collection did — the same paths in the
// same order, the same routed prefixes, origins and adjacencies — and
// relationship inference, which votes per path, labels every link the
// same over both.
func TestCollectMatchesPerPrefixOracle(t *testing.T) {
	for _, prof := range bgp.OracleProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			n := topo.Generate(prof, 1)
			vps := bgp.DefaultVantages(n)
			got, want := bgp.Collect(bgp.NewTable(n), vps), bgp.CollectOracle(n, vps)

			if len(got.Paths) != len(want.Paths) || cap(got.Paths) != len(got.Paths) {
				t.Fatalf("%d paths (cap %d), per-prefix collection gives %d", len(got.Paths), cap(got.Paths), len(want.Paths))
			}
			for i, w := range want.Paths {
				if g := got.Paths[i]; g.Prefix != w.Prefix || !slices.Equal(g.Path, w.Path) {
					t.Fatalf("path %d: %v %v, per-prefix collection gives %v %v", i, g.Prefix, g.Path, w.Prefix, w.Path)
				}
			}
			if !slices.Equal(got.RoutedPrefixes(), want.RoutedPrefixes()) {
				t.Fatal("routed prefixes differ")
			}
			for _, p := range want.RoutedPrefixes() {
				if g, w := got.OriginsExact(p), want.OriginsExact(p); !slices.Equal(g, w) {
					t.Fatalf("%v: origins %v, per-prefix collection gives %v", p, g, w)
				}
			}
			gotRel, wantRel := asrel.Infer(got), asrel.Infer(want)
			if gotRel.Len() != wantRel.Len() {
				t.Fatalf("%d inferred relationships, %d over the per-prefix view", gotRel.Len(), wantRel.Len())
			}
			for _, a := range n.ASNs() {
				nbrs := want.NeighborsOf(a)
				if !slices.Equal(got.NeighborsOf(a), nbrs) {
					t.Fatalf("AS%d: neighbors %v, per-prefix collection gives %v", a, got.NeighborsOf(a), nbrs)
				}
				if gotRel.InClique(a) != wantRel.InClique(a) {
					t.Fatalf("AS%d: clique membership differs", a)
				}
				for _, b := range nbrs {
					if !got.HasLink(a, b) {
						t.Fatalf("link AS%d–AS%d missing", a, b)
					}
					if g, w := gotRel.Rel(a, b), wantRel.Rel(a, b); g != w {
						t.Fatalf("AS%d–AS%d inferred %v, %v over the per-prefix view", a, b, g, w)
					}
				}
			}
		})
	}
}
