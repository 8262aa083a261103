package bgp_test

import (
	"slices"
	"testing"

	"bdrmap/internal/asrel"
	"bdrmap/internal/bgp"
	"bdrmap/internal/topo"
)

// TestCollectMatchesPerPrefixOracle: collecting once per atom yields the
// view the per-(prefix, vantage) collection did — expanded, the same paths
// in the same order; the same routed prefixes, origins and adjacencies —
// and relationship inference, which weighs a path by the prefixes
// reporting it, labels every link the same over both.
func TestCollectMatchesPerPrefixOracle(t *testing.T) {
	for _, prof := range bgp.OracleProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			n := topo.Generate(prof, 1)
			vps := bgp.DefaultVantages(n)
			got, want := bgp.Collect(bgp.NewTable(n), vps), bgp.CollectOracle(n, vps)

			gotPaths, wantPaths := got.Paths(), want.Paths()
			if len(gotPaths) != len(wantPaths) || cap(gotPaths) != len(gotPaths) {
				t.Fatalf("%d paths (cap %d), per-prefix collection gives %d", len(gotPaths), cap(gotPaths), len(wantPaths))
			}
			for i, w := range wantPaths {
				if g := gotPaths[i]; g.Prefix != w.Prefix || !slices.Equal(g.Path, w.Path) {
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

// TestInferWeightSplitInvariant is the property that lets a view store a
// path once for all the prefixes reporting it: relationship inference
// cannot tell a path of weight n from n copies of weight one.
func TestInferWeightSplitInvariant(t *testing.T) {
	for _, prof := range bgp.OracleProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			n := topo.Generate(prof, 2)
			view := bgp.Collect(bgp.NewTable(n), bgp.DefaultVantages(n))
			split := view.SplitUnitWeights()
			whole, parts := 0, 0
			view.EachPath(func(_ []int32, prefixes int) { whole += prefixes })
			split.EachPath(func(_ []int32, prefixes int) {
				if prefixes != 1 {
					t.Fatalf("split view reports a path of weight %d", prefixes)
				}
				parts++
			})
			if whole != parts || parts != len(view.Paths()) {
				t.Fatalf("weights sum to %d, split view has %d paths, expansion %d", whole, parts, len(view.Paths()))
			}
			got, want := asrel.Infer(split), asrel.Infer(view)
			if got.Len() != want.Len() {
				t.Fatalf("%d relationships over the split view, %d over the grouped one", got.Len(), want.Len())
			}
			for _, a := range n.ASNs() {
				if got.InClique(a) != want.InClique(a) {
					t.Fatalf("AS%d: clique membership differs", a)
				}
				if !slices.Equal(got.Neighbors(a), want.Neighbors(a)) {
					t.Fatalf("AS%d: neighbors differ", a)
				}
				for _, b := range want.Neighbors(a) {
					if g, w := got.Rel(a, b), want.Rel(a, b); g != w {
						t.Fatalf("AS%d–AS%d inferred %v over the split view, %v over the grouped one", a, b, g, w)
					}
				}
			}
		})
	}
}
