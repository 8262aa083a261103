package bgp

import (
	"math/rand"
	"testing"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// randomHierarchy builds a random 4-level AS hierarchy: level 0 is a
// clique, every lower AS has 1-2 providers one level up, and some ASes
// peer within their level.
func randomHierarchy(seed int64) *topo.Network {
	rng := rand.New(rand.NewSource(seed))
	n := topo.NewNetwork()
	al := topo.NewAllocator()
	levels := [][]topo.ASN{}
	next := topo.ASN(100)
	sizes := []int{3, 4 + rng.Intn(3), 6 + rng.Intn(5), 10 + rng.Intn(8)}
	for li, size := range sizes {
		var level []topo.ASN
		for i := 0; i < size; i++ {
			asn := next
			next++
			a := n.AddAS(asn, topo.TierTransit, "org")
			a.Prefixes = []netx.Prefix{al.Next(16)}
			level = append(level, asn)
			if li == 0 {
				a.Tier = topo.TierTier1
			}
		}
		levels = append(levels, level)
	}
	n.HostASN = levels[len(levels)-1][0]
	// Clique at the top.
	top := levels[0]
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			n.SetRel(top[i], top[j], topo.RelPeer)
		}
	}
	// Providers one level up.
	for li := 1; li < len(levels); li++ {
		for _, asn := range levels[li] {
			up := levels[li-1]
			p1 := up[rng.Intn(len(up))]
			n.SetRel(asn, p1, topo.RelCustomer)
			if rng.Float64() < 0.4 {
				p2 := up[rng.Intn(len(up))]
				if p2 != p1 {
					n.SetRel(asn, p2, topo.RelCustomer)
				}
			}
		}
		// A few lateral peers.
		lvl := levels[li]
		for k := 0; k < len(lvl)/3; k++ {
			a, b := lvl[rng.Intn(len(lvl))], lvl[rng.Intn(len(lvl))]
			if a != b && n.ASes[a].RelTo(b) == topo.RelNone {
				n.SetRel(a, b, topo.RelPeer)
			}
		}
	}
	n.Build()
	return n
}

// TestRoutePropagationInvariants checks self-consistency of the computed
// RIBs over random hierarchies:
//
//  1. every routed AS's (class, len) is exactly what its canonical next
//     hop would export to it;
//  2. path lengths decrease by one along the canonical chain;
//  3. the chosen class is optimal: no neighbor could provide a strictly
//     better class;
//  4. the origin itself has the origin class.
func TestRoutePropagationInvariants(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := randomHierarchy(seed)
		tb := NewTable(n)
		for _, p := range tb.Prefixes() {
			rib := tb.Routes(p)
			for i := range tb.asns {
				x := int32(i)
				c, l, nh := rib.At(x)
				if c == ClassNone {
					continue
				}
				if c == ClassOrigin {
					if l != 0 {
						t.Fatalf("seed %d: origin with len %d", seed, l)
					}
					continue
				}
				if nh < 0 {
					t.Fatalf("seed %d: routed AS %v without next hop", seed, tb.asns[x])
				}
				cN, lN, _ := rib.At(nh)
				// (1) consistency with the export rule.
				rel := n.ASes[tb.asns[x]].RelTo(tb.asns[nh])
				if got := receivedClass(cN, rel); got != c {
					t.Fatalf("seed %d: %v class %v inconsistent with next %v (%v, rel %v)",
						seed, tb.asns[x], c, tb.asns[nh], cN, rel)
				}
				// (2) monotonic length.
				if l != lN+1 {
					t.Fatalf("seed %d: %v len %d, next len %d", seed, tb.asns[x], l, lN)
				}
				// (3) optimality: no neighbor offers a better class.
				for _, nb := range n.ASes[tb.asns[x]].Neighbors() {
					j := tb.IndexOf(nb.ASN)
					if j < 0 {
						continue
					}
					cJ, _, _ := rib.At(j)
					if offered := receivedClass(cJ, nb.Rel); cJ != ClassNone && offered != ClassNone && offered < c {
						t.Fatalf("seed %d: %v chose class %v but %v offered %v",
							seed, tb.asns[x], c, nb.ASN, offered)
					}
				}
			}
		}
	}
}

// TestEveryoneReachesEverything: in a fully-provisioned hierarchy every AS
// has a route to every prefix (the top clique provides universal transit).
func TestEveryoneReachesEverything(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		n := randomHierarchy(seed)
		tb := NewTable(n)
		for _, p := range tb.Prefixes() {
			rib := tb.Routes(p)
			for i, asn := range tb.asns {
				if c, _, _ := rib.At(int32(i)); c == ClassNone {
					t.Fatalf("seed %d: %v cannot reach %v", seed, asn, p)
				}
			}
		}
	}
}

// TestPathsAreValleyFree re-validates the canonical chains on random
// hierarchies with ground-truth relationships.
func TestPathsAreValleyFree(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		n := randomHierarchy(seed)
		tb := NewTable(n)
		for _, p := range tb.Prefixes() {
			for _, asn := range n.ASNs() {
				path := tb.Path(asn, p)
				if path == nil {
					continue
				}
				phase := 0 // 0 up (from origin side), but we walk vantage→origin
				for i := 1; i < len(path); i++ {
					switch n.ASes[path[i-1]].RelTo(path[i]) {
					case topo.RelProvider:
						if phase != 0 {
							t.Fatalf("seed %d: valley in %v", seed, path)
						}
					case topo.RelPeer:
						if phase >= 1 {
							t.Fatalf("seed %d: double peer in %v", seed, path)
						}
						phase = 1
					case topo.RelCustomer:
						phase = 2
					case topo.RelSibling:
					default:
						t.Fatalf("seed %d: non-adjacent hop in %v", seed, path)
					}
				}
			}
		}
	}
}
