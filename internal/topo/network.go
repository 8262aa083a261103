package topo

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"bdrmap/internal/netx"
)

// IXP describes one Internet exchange point: the operator's AS, the shared
// peering LAN subnet, and the members holding addresses on it.
type IXP struct {
	Name         string
	OperatorASN  ASN
	LAN          netx.Prefix
	Members      []ASN
	AnnouncesLAN bool // whether the operator (or a member) originates the LAN subnet in BGP (§4 challenge 6)
	Longitude    float64

	// Remote lists members attached over long-haul layer-2 circuits: their
	// routers sit in a distant metro and their LAN interfaces carry an
	// AttachDelay, violating the distance assumptions local peering obeys.
	Remote []ASN

	// Bilateral lists members whose session with the host is a direct
	// bilateral BGP session rather than a route-server multilateral one;
	// bilateral sessions are visible in the public BGP view, route-server
	// sessions are the hidden "trace"-only neighbors of Table 1.
	Bilateral []ASN
}

// VP is a vantage point: a measurement host attached to a specific router
// of the hosting network.
type VP struct {
	Name   string
	Host   ASN      // AS hosting the VP
	Router RouterID // attachment router
	Addr   netx.Addr
}

// DelegationRecord mirrors one line of an RIR extended delegation file: an
// address block delegated to an organization identified by an opaque ID.
type DelegationRecord struct {
	OrgID  string
	Prefix netx.Prefix
}

// InterdomainLinkTruth is the ground truth for one interdomain link: the
// two routers, their owners, and the interfaces involved. Validation (§5.6)
// compares bdrmap inferences against these.
type InterdomainLinkTruth struct {
	Link    *Link
	FarAS   ASN // the neighbour, from the perspective of the host network asked about
	NearRtr RouterID
	FarRtr  RouterID
}

// Network is a complete synthetic internetwork: ASes, routers, links,
// IXPs, sibling organizations, delegation records, and indexes over them.
type Network struct {
	ASes    map[ASN]*AS
	Routers []*Router // indexed by RouterID
	Links   []*Link
	IXPs    []*IXP
	VPs     []*VP

	// Delegations is the synthetic RIR delegation dataset.
	Delegations []DelegationRecord

	// HostASN is the network hosting the vantage points under study.
	HostASN ASN

	// MultiOrigin lists prefixes originated by more than one AS (§4
	// challenge 7), keyed by prefix with all origins.
	MultiOrigin map[netx.Prefix][]ASN

	// HiddenNeighbors are neighbors of the host whose routes the host
	// treats as no-export (e.g. IXP route-server peerings): the links are
	// real and carry probe traffic, but never appear in the public BGP
	// view. These are the "trace"-only neighbors of Table 1.
	HiddenNeighbors map[ASN]bool

	// Tags label notable ASes for evaluation ("bigpeer0", CDN names, ...).
	Tags map[string]ASN

	// Alloc is the address allocator used during generation, retained so
	// the topology can be mutated afterwards (new interconnections need
	// fresh subnets). Nil for hand-built networks.
	Alloc *Allocator

	// AnnotSeed seeds the per-AS link-annotation hash (annot.go). Zero for
	// hand-built networks, which still get deterministic annotations.
	AnnotSeed int64

	ifaceByAddr map[netx.Addr]*Iface
	ixpSessions []IXPSession
	idx         *graphIndex
}

// NewNetwork returns an empty network ready for construction.
func NewNetwork() *Network {
	return &Network{
		ASes:        make(map[ASN]*AS),
		MultiOrigin: make(map[netx.Prefix][]ASN),
		ifaceByAddr: make(map[netx.Addr]*Iface),
		Tags:        make(map[string]ASN),
	}
}

// AddAS creates and registers an AS.
func (n *Network) AddAS(asn ASN, tier Tier, org string) *AS {
	if _, dup := n.ASes[asn]; dup {
		panic(fmt.Sprintf("topo: duplicate %v", asn))
	}
	a := &AS{ASN: asn, Tier: tier, Org: org, neighbors: make(map[ASN]Rel)}
	n.ASes[asn] = a
	return a
}

// AddRouter creates a router owned by asn.
func (n *Network) AddRouter(asn ASN, name string, lon float64) *Router {
	r := &Router{ID: RouterID(len(n.Routers)), Owner: asn, Name: name, Longitude: lon}
	n.Routers = append(n.Routers, r)
	if a := n.ASes[asn]; a != nil {
		a.Routers = append(a.Routers, r)
	}
	return r
}

// Router returns the router with the given ID, or nil.
func (n *Network) Router(id RouterID) *Router {
	if id < 0 || int(id) >= len(n.Routers) {
		return nil
	}
	return n.Routers[id]
}

// SetRel records an AS-level relationship; rel states what a is to b:
// SetRel(a, b, RelCustomer) means a is a customer of b. Afterwards
// b.RelTo(a) == RelCustomer and a.RelTo(b) == RelProvider.
func (n *Network) SetRel(a, b ASN, rel Rel) {
	asA, asB := n.ASes[a], n.ASes[b]
	if asA == nil || asB == nil {
		panic(fmt.Sprintf("topo: SetRel unknown AS %v or %v", a, b))
	}
	asA.neighbors[b] = rel.Invert()
	asB.neighbors[a] = rel
}

// RegisterIface indexes an interface address for address→interface lookup.
// Zero addresses are ignored.
func (n *Network) RegisterIface(ifc *Iface) {
	if ifc == nil || ifc.Addr.IsZero() {
		return
	}
	if prev, dup := n.ifaceByAddr[ifc.Addr]; dup && prev != ifc {
		panic(fmt.Sprintf("topo: address %v assigned twice (routers %d and %d)", ifc.Addr, prev.Router, ifc.Router))
	}
	n.ifaceByAddr[ifc.Addr] = ifc
}

// IfaceByAddr returns the interface numbered addr, or nil.
func (n *Network) IfaceByAddr(addr netx.Addr) *Iface { return n.ifaceByAddr[addr] }

// RouterByAddr returns the router owning the interface numbered addr.
func (n *Network) RouterByAddr(addr netx.Addr) *Router {
	ifc := n.ifaceByAddr[addr]
	if ifc == nil {
		return nil
	}
	return n.Router(ifc.Router)
}

// OwnerOfAddr returns the AS operating the router that holds addr
// (ground truth), or 0 if the address is unassigned.
func (n *Network) OwnerOfAddr(addr netx.Addr) ASN {
	if r := n.RouterByAddr(addr); r != nil {
		return r.Owner
	}
	return 0
}

// AddLink creates and registers a link.
func (n *Network) AddLink(kind LinkKind, subnet netx.Prefix, addrOwner ASN) *Link {
	l := &Link{Kind: kind, Subnet: subnet, AddrOwner: addrOwner}
	n.Links = append(n.Links, l)
	return l
}

// ConnectPtP joins routers a and b with a point-to-point link over subnet
// (a /31 or /30). Interface addresses are the two usable host addresses;
// a gets the lower one. Pass kind and the AS whose space numbers the subnet.
func (n *Network) ConnectPtP(a, b *Router, subnet netx.Prefix, kind LinkKind, addrOwner ASN) *Link {
	l := n.AddLink(kind, subnet, addrOwner)
	var loAddr, hiAddr netx.Addr
	switch subnet.Len {
	case 31:
		loAddr, hiAddr = subnet.First(), subnet.First()+1
	case 30:
		loAddr, hiAddr = subnet.First()+1, subnet.First()+2
	default:
		panic(fmt.Sprintf("topo: point-to-point subnet must be /30 or /31, got %v", subnet))
	}
	ifa := a.AddIface(loAddr, l)
	ifb := b.AddIface(hiAddr, l)
	n.RegisterIface(ifa)
	n.RegisterIface(ifb)
	return l
}

// InterdomainLinks returns the ground-truth interdomain links attached to
// asn: every interdomain point-to-point link with one side in asn, plus
// every pair (asn's router, member router) implied by IXP peering sessions
// recorded in sessions (nil sessions means point-to-point links only).
func (n *Network) InterdomainLinks(asn ASN) []InterdomainLinkTruth {
	var out []InterdomainLinkTruth
	for _, l := range n.Links {
		if l.Kind != LinkInterdomain || len(l.Ifaces) != 2 {
			continue
		}
		r0 := n.Router(l.Ifaces[0].Router)
		r1 := n.Router(l.Ifaces[1].Router)
		switch {
		case r0.Owner == asn && r1.Owner != asn:
			out = append(out, InterdomainLinkTruth{Link: l, FarAS: r1.Owner, NearRtr: r0.ID, FarRtr: r1.ID})
		case r1.Owner == asn && r0.Owner != asn:
			out = append(out, InterdomainLinkTruth{Link: l, FarAS: r0.Owner, NearRtr: r1.ID, FarRtr: r0.ID})
		}
	}
	// Fully ordered: (NearRtr, FarRtr) ties are possible when parallel
	// links join the same router pair, and sort.Slice is unstable, so a
	// tie would let map churn elsewhere reorder callers' "first link"
	// (mapdb's mutation schedule picks border routers that way). The
	// first interface address is unique per link and pins the order.
	sort.Slice(out, func(i, j int) bool {
		if out[i].NearRtr != out[j].NearRtr {
			return out[i].NearRtr < out[j].NearRtr
		}
		if out[i].FarRtr != out[j].FarRtr {
			return out[i].FarRtr < out[j].FarRtr
		}
		return out[i].Link.Ifaces[0].Addr < out[j].Link.Ifaces[0].Addr
	})
	return out
}

// TrueNeighbors returns the ground-truth AS-level neighbor set of asn
// (all relationship kinds), sorted.
func (n *Network) TrueNeighbors(asn ASN) []ASNeighbor {
	a := n.ASes[asn]
	if a == nil {
		return nil
	}
	return a.Neighbors()
}

// Siblings returns the ASNs sharing an organization with asn, asn
// included, in ASN order; an AS with no organization name is an
// organization of its own. Build indexes them: the slice is shared and
// must not be modified, and it is nil for an AS Build has not seen.
func (n *Network) Siblings(asn ASN) []ASN {
	if a := n.ASes[asn]; a != nil {
		return a.siblings
	}
	return nil
}

// SameOrg reports whether a and b belong to one organization: a is b, or b
// is one of a's Siblings.
func (n *Network) SameOrg(a, b ASN) bool {
	if a == b {
		return true
	}
	_, ok := slices.BinarySearch(n.Siblings(a), b)
	return ok
}

// OrgOf names asn's organization by its least ASN, the first of its
// Siblings; an AS Build has not seen is named by its own ASN.
func (n *Network) OrgOf(asn ASN) ASN {
	if sibs := n.Siblings(asn); len(sibs) > 0 {
		return sibs[0]
	}
	return asn
}

// indexSiblings cuts each organization's run, in ASN order, out of one
// array of every ASN sorted by organization.
func (n *Network) indexSiblings() {
	ases := make([]*AS, 0, len(n.ASes))
	for _, a := range n.ASes {
		ases = append(ases, a)
	}
	slices.SortFunc(ases, func(a, b *AS) int {
		return cmp.Or(strings.Compare(a.Org, b.Org), cmp.Compare(a.ASN, b.ASN))
	})
	all := make([]ASN, len(ases))
	for i, a := range ases {
		all[i] = a.ASN
	}
	for lo := 0; lo < len(ases); {
		hi := lo + 1
		for ases[lo].Org != "" && hi < len(ases) && ases[hi].Org == ases[lo].Org {
			hi++
		}
		for _, a := range ases[lo:hi] {
			a.siblings = all[lo:hi:hi]
		}
		lo = hi
	}
}

// ASNs returns all ASNs in deterministic (sorted) order.
func (n *Network) ASNs() []ASN {
	out := make([]ASN, 0, len(n.ASes))
	for asn := range n.ASes {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats summarizes the network for documentation and logging.
type Stats struct {
	ASes, Routers, Links, InterdomainLinks, Prefixes, IXPs, VPs int
}

// Stats computes summary counts.
func (n *Network) Stats() Stats {
	s := Stats{ASes: len(n.ASes), Routers: len(n.Routers), Links: len(n.Links), IXPs: len(n.IXPs), VPs: len(n.VPs)}
	for _, l := range n.Links {
		if l.Kind == LinkInterdomain {
			s.InterdomainLinks++
		}
	}
	for _, a := range n.ASes {
		s.Prefixes += len(a.Prefixes)
	}
	return s
}
