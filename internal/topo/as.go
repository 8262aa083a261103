// Package topo models the synthetic router-level Internet that substitutes
// for the live network the bdrmap paper measured. It generates an AS-level
// graph with business relationships, a router-level topology with the
// address-assignment conventions the paper's heuristics depend on
// (provider-supplied /30 and /31 interconnection subnets, IXP peering LANs,
// provider-aggregatable delegations, unrouted infrastructure space), and
// per-router response behaviours (firewalled edges, silent routers, virtual
// routers, third-party source address selection) that reproduce the
// traceroute idiosyncrasies of §4 of the paper.
//
// The topology carries its own ground truth: every router knows its owner
// AS and every interdomain link knows both parties, so inference accuracy
// can be validated exactly as §5.6 validates against operator ground truth.
package topo

import (
	"sort"
	"strconv"

	"bdrmap/internal/netx"
)

// ASN is an autonomous system number.
type ASN uint32

// String returns the conventional "ASxxxx" rendering.
func (a ASN) String() string {
	var buf [12]byte // "AS" and at most ten digits
	return string(strconv.AppendUint(append(buf[:0], "AS"...), uint64(a), 10))
}

// Rel is the business relationship between two ASes, expressed from the
// perspective of the first AS: RelCustomer means "the first AS is a
// customer of the second".
type Rel int8

// Relationship values.
const (
	RelNone     Rel = iota // no relationship / unknown
	RelCustomer            // first AS buys transit from second (c2p)
	RelProvider            // first AS sells transit to second (p2c)
	RelPeer                // settlement-free peering (p2p)
	RelSibling             // same organization
)

// Invert flips the perspective of a relationship.
func (r Rel) Invert() Rel {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return r
	}
}

func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelProvider:
		return "provider"
	case RelPeer:
		return "peer"
	case RelSibling:
		return "sibling"
	default:
		return "none"
	}
}

// Tier classifies an AS by its role in the synthetic topology. The roles
// mirror the network types the paper studies and validates against.
type Tier int8

// Tier values.
const (
	TierStub    Tier = iota // edge network, no customers
	TierAccess              // access/eyeball network
	TierTransit             // regional or national transit provider
	TierTier1               // member of the Tier-1 clique
	TierCDN                 // content network peering widely
	TierIXP                 // the IXP operator's own AS
	TierRE                  // research & education network
)

func (t Tier) String() string {
	switch t {
	case TierStub:
		return "stub"
	case TierAccess:
		return "access"
	case TierTransit:
		return "transit"
	case TierTier1:
		return "tier1"
	case TierCDN:
		return "cdn"
	case TierIXP:
		return "ixp"
	case TierRE:
		return "r&e"
	default:
		return "unknown"
	}
}

// AnnouncePolicy controls where an AS announces each of its prefixes when it
// has multiple interconnection links to the same neighbor. The paper's §6
// contrasts Level3 (hot-potato: every prefix announced at every link) with
// Akamai (each prefix announced at exactly one link) and Google (coastal).
type AnnouncePolicy int8

// AnnouncePolicy values.
const (
	AnnounceEverywhere AnnouncePolicy = iota // all prefixes on all links (Level3-like)
	AnnouncePinned                           // each prefix pinned to one link (Akamai-like)
	AnnounceCoastal                          // prefixes split between westmost and eastmost links (Google-like)
)

func (p AnnouncePolicy) String() string {
	switch p {
	case AnnounceEverywhere:
		return "everywhere"
	case AnnouncePinned:
		return "pinned"
	case AnnounceCoastal:
		return "coastal"
	default:
		return "unknown"
	}
}

// AS is one autonomous system in the synthetic topology.
type AS struct {
	ASN  ASN
	Tier Tier
	Org  string // organization identifier; sibling ASes share an Org

	// Prefixes the AS originates in BGP, in announcement order.
	Prefixes []netx.Prefix

	// Infra is the address space the AS numbers its router interfaces and
	// interconnection subnets from. It may equal a announced prefix, or be
	// separate space that is only visible in RIR delegation files
	// (AnnounceInfra=false models operators who do not route their
	// infrastructure addresses, §5.4.3).
	Infra         netx.Prefix
	AnnounceInfra bool

	// Policy controls per-link prefix announcement (§6).
	Policy AnnouncePolicy

	// Routers owned by this AS, in creation order.
	Routers []*Router

	// neighbors at the AS level, keyed by neighbor ASN.
	neighbors map[ASN]Rel

	// siblings is the AS's organisation in ASN order, as Build found it.
	siblings []ASN
}

// Neighbors returns the AS-level neighbors and relationships, sorted by ASN.
func (a *AS) Neighbors() []ASNeighbor {
	out := make([]ASNeighbor, 0, len(a.neighbors))
	for asn, rel := range a.neighbors {
		out = append(out, ASNeighbor{ASN: asn, Rel: rel})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

// RelTo returns what asn is to this AS: RelCustomer means "asn is my
// customer", RelProvider "asn is my provider". RelNone if not adjacent.
func (a *AS) RelTo(asn ASN) Rel { return a.neighbors[asn] }

// ASNeighbor pairs a neighbor ASN with what that neighbor is to the AS
// that returned it (RelCustomer: the neighbor is a customer).
type ASNeighbor struct {
	ASN ASN
	Rel Rel
}

// OriginatesAddr reports whether addr falls in one of the AS's announced
// prefixes. Note this is origin truth, not the public-BGP view.
func (a *AS) OriginatesAddr(addr netx.Addr) bool {
	for _, p := range a.Prefixes {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}
