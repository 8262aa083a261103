package topo

import (
	"fmt"

	"bdrmap/internal/netx"
)

// Topology mutation: the CAIDA deployment runs bdrmap continuously and
// diffs successive border maps to track interconnection churn (new
// customers turned up, links de-provisioned). These helpers change a
// generated network in place; call Build again afterwards and measure with
// a fresh probe engine (routing tables and caches are invalidated).

// AttachCustomer provisions a new customer of the host network: a new AS
// announcing one prefix, one border router, and an interdomain link
// numbered from the host's space at the given host border router.
// The new customer responds normally but firewalls its interior (the most
// common archetype). Returns the new ASN.
func AttachCustomer(n *Network, hostBorder RouterID, asn ASN) (ASN, error) {
	if n.Alloc == nil {
		return 0, fmt.Errorf("topo: network has no allocator (hand-built?)")
	}
	br := n.Router(hostBorder)
	if br == nil {
		return 0, fmt.Errorf("topo: no router %d", hostBorder)
	}
	if !n.sameOrgAsHost(br.Owner) {
		return 0, fmt.Errorf("topo: router %d not operated by the host", hostBorder)
	}
	if _, dup := n.ASes[asn]; dup {
		return 0, fmt.Errorf("topo: %v already exists", asn)
	}
	host := n.ASes[n.HostASN]

	c := n.AddAS(asn, TierStub, fmt.Sprintf("org-%d", asn))
	p := n.Alloc.Next(20)
	c.Prefixes = []netx.Prefix{p}
	c.Infra = p
	c.AnnounceInfra = true
	n.SetRel(asn, n.HostASN, RelCustomer)

	border := n.AddRouter(asn, "bdr1", br.Longitude)
	border.Behavior.FirewallEdge = true
	core := n.AddRouter(asn, "core1", br.Longitude)
	n.ConnectPtP(br, border, n.Alloc.Sub(host.Infra, 31), LinkInterdomain, n.HostASN)
	n.ConnectPtP(border, core, n.Alloc.Sub(p, 31), LinkInternal, asn)
	n.SetAnchor(p, core.ID, true)
	return asn, nil
}

// AttachPeer provisions a new settlement-free peer of the host network at
// the given host border router. The peering subnet comes from the peer's
// space (the common convention between peers of similar size); the peer is
// also given a transit provider so its prefix is globally reachable, and
// it responds onenet-style (big networks answer traceroute). Returns the
// new ASN.
func AttachPeer(n *Network, hostBorder RouterID, asn ASN, transit ASN) (ASN, error) {
	if n.Alloc == nil {
		return 0, fmt.Errorf("topo: network has no allocator (hand-built?)")
	}
	br := n.Router(hostBorder)
	if br == nil || !n.sameOrgAsHost(br.Owner) {
		return 0, fmt.Errorf("topo: invalid host border router %d", hostBorder)
	}
	t := n.ASes[transit]
	if t == nil || len(t.Routers) == 0 {
		return 0, fmt.Errorf("topo: transit %v unknown or router-less", transit)
	}
	if _, dup := n.ASes[asn]; dup {
		return 0, fmt.Errorf("topo: %v already exists", asn)
	}

	p := n.AddAS(asn, TierTransit, fmt.Sprintf("org-%d", asn))
	pfx := n.Alloc.Next(18)
	p.Prefixes = []netx.Prefix{pfx}
	p.Infra = pfx
	p.AnnounceInfra = true
	n.SetRel(asn, n.HostASN, RelPeer)
	n.SetRel(asn, transit, RelCustomer)

	border := n.AddRouter(asn, "bdr1", br.Longitude)
	core := n.AddRouter(asn, "core1", br.Longitude)
	agg := n.AddRouter(asn, "agg1", br.Longitude)
	agg.Behavior.FirewallEdge = true
	n.ConnectPtP(br, border, n.Alloc.Sub(pfx, 31), LinkInterdomain, asn)
	n.ConnectPtP(border, core, n.Alloc.Sub(pfx, 31), LinkInternal, asn)
	n.ConnectPtP(core, agg, n.Alloc.Sub(pfx, 31), LinkInternal, asn)
	n.ConnectPtP(t.Routers[len(t.Routers)-1], core,
		n.Alloc.Sub(t.Infra, 31), LinkInterdomain, transit)
	n.SetAnchor(pfx, agg.ID, true)
	return asn, nil
}

// Depeer removes the interdomain link(s) between the host and neighbor:
// the physical de-provisioning of an interconnect. BGP sessions across an
// IXP LAN — route-server or bilateral — count as interconnects too and are
// torn down; the LAN and its interfaces survive, since they belong to the
// IXP operator, not the departing pair. The neighbor AS and its
// relationship survive; with no remaining attachment its prefixes route
// via any other transit it has. Returns the number of links plus sessions
// removed.
func Depeer(n *Network, neighbor ASN) int {
	removed := 0
	keep := n.Links[:0]
	for _, l := range n.Links {
		drop := false
		if l.Kind == LinkInterdomain && len(l.Ifaces) == 2 {
			a := n.Router(l.Ifaces[0].Router)
			b := n.Router(l.Ifaces[1].Router)
			hostSide := n.sameOrgAsHost(a.Owner) || n.sameOrgAsHost(b.Owner)
			neighborSide := a.Owner == neighbor || b.Owner == neighbor
			if hostSide && neighborSide {
				drop = true
			}
		}
		if drop {
			removed++
			for _, ifc := range l.Ifaces {
				n.detachIface(ifc)
			}
		} else {
			keep = append(keep, l)
		}
	}
	n.Links = keep
	keepSess := n.ixpSessions[:0]
	for _, s := range n.ixpSessions {
		hostSide := n.sameOrgAsHost(s.A) || n.sameOrgAsHost(s.B)
		neighborSide := s.A == neighbor || s.B == neighbor
		if hostSide && neighborSide {
			removed++
			continue
		}
		keepSess = append(keepSess, s)
	}
	n.ixpSessions = keepSess
	return removed
}

// sameOrgAsHost reports whether asn belongs to the hosting organization.
func (n *Network) sameOrgAsHost(asn ASN) bool {
	return n.SameOrg(asn, n.HostASN)
}

// detachIface removes an interface from its router and the address index.
func (n *Network) detachIface(ifc *Iface) {
	if ifc == nil {
		return
	}
	delete(n.ifaceByAddr, ifc.Addr)
	r := n.Router(ifc.Router)
	if r == nil {
		return
	}
	keep := r.Ifaces[:0]
	for _, x := range r.Ifaces {
		if x != ifc {
			keep = append(keep, x)
		}
	}
	r.Ifaces = keep
}
