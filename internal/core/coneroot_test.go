package core

import (
	"slices"
	"testing"

	"bdrmap/internal/asrel"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// providerScanConeRoot is the reference soleConeRoot is held to: b covers d
// when b appears in the provider list of d, scanned in full for every
// ordered pair of the set.
func providerScanConeRoot(rel *asrel.Inference, dests []asCount) topo.ASN {
	switch len(dests) {
	case 0:
		return 0
	case 1:
		return dests[0].as
	}
	var root topo.ASN
	for _, be := range dests {
		b := be.as
		ok := true
		for _, de := range dests {
			d := de.as
			if d == b {
				continue
			}
			if !slices.Contains(rel.ProvidersOf(d), b) {
				ok = false
				break
			}
		}
		if ok {
			if root != 0 {
				return 0 // ambiguous
			}
			root = b
		}
	}
	return root
}

// TestSoleConeRootMatchesProviderScan holds the relationship-table lookup
// to the provider scan on every destination set the sweep can meet — each
// router's, for every VP of large-access and tier1 — and on hand-made sets
// whose answer follows from how they were picked.
func TestSoleConeRootMatchesProviderScan(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-VP pipelines in -short mode")
	}
	var last *graph // tier1's, whose relationships the hand-made sets use
	var ases []topo.ASN
	for _, prof := range []topo.Profile{topo.LargeAccessProfile(), topo.Tier1Profile()} {
		n := topo.Generate(prof, 1)
		_, in, engine, hosts := pipelineFull(t, n, 0, scamper.Config{})
		ases = ases[:0]
		for a := range n.ASes {
			ases = append(ases, a)
		}
		sets, rooted, rootless := 0, 0, 0
		for vp := range n.VPs {
			if vp > 0 {
				d := &scamper.Driver{
					View:     in.View,
					Prober:   scamper.LocalProber{E: engine, VP: n.VPs[vp]},
					HostASNs: hosts,
				}
				in.Data = d.Run()
			}
			g := buildGraph(in, &arena{})
			for i := range g.nodes {
				dests := g.nodes[i].dests
				got, want := g.soleConeRoot(dests), providerScanConeRoot(in.Rel, dests)
				if got != want {
					t.Fatalf("%s VP %d node %d: soleConeRoot(%v) = %v, provider scan says %v",
						prof.Name, vp, i, dests, got, want)
				}
				if len(dests) > 1 {
					sets++
					if got != 0 {
						rooted++
					} else {
						rootless++
					}
				}
			}
			last = g
		}
		t.Logf("%s: %d VPs, %d multi-destination sets (%d rooted, %d not)", prof.Name, len(n.VPs), sets, rooted, rootless)
		if rooted == 0 || rootless == 0 {
			t.Errorf("%s: %d rooted and %d rootless multi-destination sets: one side of the comparison never ran", prof.Name, rooted, rootless)
		}
	}

	// Hand-made sets over tier1's inferred relationships: a customer d with
	// two providers that are not each other's provider, and an AS x never
	// seen adjacent to d.
	rel := last.in.Rel
	slices.Sort(ases)
	var d, p1, p2, x topo.ASN
	for _, a := range ases {
		ps := rel.ProvidersOf(a)
		for i := 0; i < len(ps) && p2 == 0; i++ {
			for _, q := range ps[i+1:] {
				if r := rel.Rel(ps[i], q); r != topo.RelProvider && r != topo.RelCustomer {
					d, p1, p2 = a, ps[i], q
					break
				}
			}
		}
		if p2 != 0 {
			break
		}
	}
	for _, a := range ases {
		if a != d && rel.Rel(d, a) == topo.RelNone && rel.Rel(p1, a) == topo.RelNone {
			x = a
			break
		}
	}
	if p2 == 0 || x == 0 {
		t.Fatalf("tier1 has no multihomed customer (%v via %v, %v) or no stranger to it (%v)", d, p1, p2, x)
	}
	set := func(as ...topo.ASN) []asCount {
		slices.Sort(as)
		out := make([]asCount, len(as))
		for i, a := range as {
			out[i] = asCount{as: a, n: 1}
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		dests []asCount
		want  topo.ASN
	}{
		{"empty", nil, 0},
		{"single", set(d), d},
		{"customer and provider", set(d, p1), p1},
		{"ambiguous: two providers of one customer", set(d, p1, p2), 0},
		{"no root: strangers", set(d, x), 0},
		{"no root: provider, customer and a stranger", set(d, p1, x), 0},
	} {
		got, ref := last.soleConeRoot(tc.dests), providerScanConeRoot(rel, tc.dests)
		if got != tc.want || ref != tc.want {
			t.Errorf("%s %v: soleConeRoot = %v, provider scan = %v, want %v", tc.name, tc.dests, got, ref, tc.want)
		}
	}
}
