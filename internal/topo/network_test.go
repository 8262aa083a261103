package topo

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"bdrmap/internal/netx"
)

func mustPrefix(t *testing.T, s string) netx.Prefix {
	t.Helper()
	p, err := netx.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestASNStringMatchesFmt: the strconv rendering is what fmt's "AS%d"
// printed, at every digit count.
func TestASNStringMatchesFmt(t *testing.T) {
	for _, a := range []ASN{0, 7, 42, 174, 3356, 65001, 131072, 4200000000, 4294967295} {
		if got, want := a.String(), fmt.Sprintf("AS%d", uint32(a)); got != want {
			t.Errorf("ASN(%d).String() = %q, fmt prints %q", uint32(a), got, want)
		}
		if got, want := fmt.Sprint(a), a.String(); got != want {
			t.Errorf("fmt.Sprint(ASN(%d)) = %q, want %q", uint32(a), got, want)
		}
	}
}

// InterdomainLinks feeds mapdb's mutation schedule ("attach at the first
// border router") and the rounds rng draw, so its order must be total:
// parallel links between the same router pair used to tie on
// (NearRtr, FarRtr) and sort.Slice's instability let unrelated map churn
// reorder them. The first interface address now breaks the tie.
func TestInterdomainLinksOrderTotal(t *testing.T) {
	build := func(reversed bool) *Network {
		n := NewNetwork()
		n.AddAS(100, TierAccess, "org-a")
		n.AddAS(200, TierAccess, "org-b")
		near := n.AddRouter(100, "near", 0)
		far := n.AddRouter(200, "far", 0)
		subnets := []string{"10.0.0.0/31", "10.0.0.2/31"}
		if reversed {
			subnets[0], subnets[1] = subnets[1], subnets[0]
		}
		for _, s := range subnets {
			n.ConnectPtP(near, far, mustPrefix(t, s), LinkInterdomain, 100)
		}
		return n
	}

	want := []netx.Addr{mustPrefix(t, "10.0.0.0/31").First(), mustPrefix(t, "10.0.0.2/31").First()}
	for _, reversed := range []bool{false, true} {
		n := build(reversed)
		links := n.InterdomainLinks(100)
		if len(links) != 2 {
			t.Fatalf("reversed=%v: got %d links, want 2", reversed, len(links))
		}
		var got []netx.Addr
		for _, lt := range links {
			if lt.NearRtr != 0 || lt.FarRtr != 1 {
				t.Fatalf("reversed=%v: unexpected endpoints %+v", reversed, lt)
			}
			got = append(got, lt.Link.Ifaces[0].Addr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reversed=%v: parallel links out of address order: got %v want %v", reversed, got, want)
		}
	}
}

// On a generated world the returned order must be strictly increasing in
// (NearRtr, FarRtr, first interface address) — i.e. fully determined, with
// no equal keys left for an unstable sort to permute — and identical
// across repeated calls.
func TestInterdomainLinksOrderDeterministic(t *testing.T) {
	n := Generate(TinyProfile(), 1)
	links := n.InterdomainLinks(n.HostASN)
	if len(links) == 0 {
		t.Fatal("no interdomain links in tiny profile")
	}
	less := func(a, b InterdomainLinkTruth) bool {
		if a.NearRtr != b.NearRtr {
			return a.NearRtr < b.NearRtr
		}
		if a.FarRtr != b.FarRtr {
			return a.FarRtr < b.FarRtr
		}
		return a.Link.Ifaces[0].Addr < b.Link.Ifaces[0].Addr
	}
	if !sort.SliceIsSorted(links, func(i, j int) bool { return less(links[i], links[j]) }) {
		t.Error("InterdomainLinks not sorted by (NearRtr, FarRtr, addr)")
	}
	for i := 1; i < len(links); i++ {
		if !less(links[i-1], links[i]) {
			t.Errorf("order not strict at %d: %+v vs %+v", i, links[i-1], links[i])
		}
	}
	for trial := 0; trial < 5; trial++ {
		again := n.InterdomainLinks(n.HostASN)
		if !reflect.DeepEqual(links, again) {
			t.Fatalf("trial %d: InterdomainLinks order changed across calls", trial)
		}
	}
}
