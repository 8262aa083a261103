// Package core implements bdrmap's border inference algorithm (§5.4 of the
// paper): it consumes one vantage point's measurement dataset (traceroutes
// plus alias-resolution results), the public BGP view, inferred AS
// relationships, RIR delegations, IXP prefixes, and the curated sibling set
// of the hosting network, and infers the owner of every observed router —
// most importantly the far side of every interdomain link attached to the
// hosting network.
//
// Routers are visited in order of observed hop distance from the VP, and
// the heuristics run in the paper's order: first identify the routers the
// hosting network operates (§5.4.1), then attribute neighbor routers using
// progressively weaker constraints — firewalled customers (§5.4.2),
// unrouted interior addressing (§5.4.3), consecutive same-AS interfaces
// (§5.4.4), AS relationships and third-party detection (§5.4.5), IP-AS
// counting and fallback (§5.4.6) — then collapse analytically-inferred
// aliases on the near side (§5.4.7), and finally place neighbors that never
// answer traceroute (§5.4.8).
package core

import (
	"sort"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// Heuristic tags identify which rule produced an inference; the names map
// one-to-one onto the rows of Table 1 in the paper.
type Heuristic string

// Heuristic tags (Table 1 rows).
const (
	HeurHostNetwork  Heuristic = "host"             // §5.4.1 step 1.2 (near side)
	HeurMultihomed   Heuristic = "multihomed-to-vp" // §5.4.1 step 1.1
	HeurFirewall     Heuristic = "firewall"         // §5.4.2
	HeurUnrouted     Heuristic = "unrouted"         // §5.4.3
	HeurOnenet       Heuristic = "onenet"           // §5.4.4
	HeurThirdParty   Heuristic = "third-party"      // §5.4.5 steps 5.1/5.2
	HeurRelationship Heuristic = "as-relationship"  // §5.4.5 step 5.3
	HeurMissingCust  Heuristic = "missing-customer" // §5.4.5 step 5.4
	HeurHiddenPeer   Heuristic = "hidden-peer"      // §5.4.5 step 5.5
	HeurCount        Heuristic = "count"            // §5.4.6 step 6.1
	HeurIPAS         Heuristic = "ip-as"            // §5.4.6 fallback
	HeurIXP          Heuristic = "ixp"              // IXP LAN address attribution
	HeurSilent       Heuristic = "silent"           // §5.4.8 step 8.1
	HeurOtherICMP    Heuristic = "other-icmp"       // §5.4.8 step 8.2
)

// RouterNode is one inferred router: a set of observed interface addresses
// merged by alias resolution, with an inferred owner.
type RouterNode struct {
	ID    int
	Addrs []netx.Addr

	Owner     topo.ASN
	Heuristic Heuristic
	// IsHost reports the router was attributed to the hosting organization.
	IsHost bool
	// HopDist is the minimum TTL at which the router was observed.
	HopDist int
}

// Link is one inferred interdomain link attached to the hosting network.
type Link struct {
	Near *RouterNode // host-side router
	Far  *RouterNode // neighbor-side router; nil for silent neighbors (§5.4.8)

	NearAddr netx.Addr // address of the host side observed in traces (0 if unknown)
	FarAddr  netx.Addr // neighbor-side address observed in traces (0 for silent)

	FarAS     topo.ASN
	Heuristic Heuristic
}

// Result is a completed inference for one vantage point.
type Result struct {
	VPName  string
	Routers []*RouterNode
	Links   []*Link

	// Neighbors groups inferred links by far AS.
	Neighbors map[topo.ASN][]*Link

	// Intern is the interface-address table this inference built; every
	// router address has a dense ID in it. Consumers that index routers
	// by address (RouterByAddr, mapdb's owner index) use it instead of
	// rebuilding address maps.
	Intern *netx.Intern
	// routerByID maps interned address IDs to indices in Routers (-1 for
	// addresses with no router).
	routerByID []int32
}

// RouterByAddr returns the inferred router holding addr, if observed.
func (r *Result) RouterByAddr(a netx.Addr) *RouterNode {
	if r.Intern == nil || r.routerByID == nil {
		return nil
	}
	id, ok := r.Intern.Lookup(a)
	if !ok || int(id) >= len(r.routerByID) || r.routerByID[id] < 0 {
		return nil
	}
	return r.Routers[r.routerByID[id]]
}

// NeighborASes returns all inferred neighbor ASes, sorted.
func (r *Result) NeighborASes() []topo.ASN {
	out := make([]topo.ASN, 0, len(r.Neighbors))
	for asn := range r.Neighbors {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
