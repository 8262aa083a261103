package topo

import (
	"fmt"
	"time"

	"bdrmap/internal/netx"
)

// RouterID identifies a router globally within one Network.
type RouterID int32

// IPIDMode describes how a router assigns IP-ID values to the packets it
// sends. Ally-style alias resolution (§5.3) only works against routers that
// use a single shared counter.
type IPIDMode int8

// IPIDMode values.
const (
	IPIDShared   IPIDMode = iota // one central counter for all interfaces (Ally works)
	IPIDPerIface                 // independent counter per interface (Ally must reject)
	IPIDRandom                   // pseudorandom per packet (Ally must reject)
	IPIDZero                     // always zero (Ally must reject; common on modern routers)
)

func (m IPIDMode) String() string {
	switch m {
	case IPIDShared:
		return "shared"
	case IPIDPerIface:
		return "per-iface"
	case IPIDRandom:
		return "random"
	case IPIDZero:
		return "zero"
	default:
		return "unknown"
	}
}

// Behavior captures how a router responds to measurement probes. Every flag
// corresponds to a traceroute idiosyncrasy the paper's heuristics must
// tolerate (§4, §5.4).
type Behavior struct {
	// NoTTLExpired suppresses ICMP time exceeded messages entirely; such a
	// router is invisible in traceroute (§5.4.8, "silent" routers).
	NoTTLExpired bool

	// NoEchoReply suppresses ICMP echo replies.
	NoEchoReply bool

	// NoUDPUnreach suppresses ICMP destination unreachable responses to UDP
	// probes (defeats Mercator).
	NoUDPUnreach bool

	// FirewallEdge drops any probe that would transit this router deeper
	// into its own AS (§4 challenge 3: enterprise border filtering). The
	// router itself still answers per its other flags.
	FirewallEdge bool

	// SourceEgressToProbe makes the router choose TTL-expired source
	// addresses per the RFC 1812 advice: the interface transmitting the
	// response, i.e. the egress toward the prober. When the best route back
	// runs via a third AS that supplied the link subnet, this produces the
	// third-party addresses of §4 challenge 2.
	SourceEgressToProbe bool

	// MercatorCanonical controls the source address of ICMP port
	// unreachable responses: true means one canonical address for all
	// probed interfaces (Mercator can resolve aliases); false means the
	// probed address itself (no alias evidence).
	MercatorCanonical bool

	// IPID selects the IP-ID assignment discipline.
	IPID IPIDMode

	// RateLimitPPS bounds ICMP generation; 0 means unlimited. A limited
	// router answers at most this many probes per simulated second.
	RateLimitPPS int
}

// LinkKind classifies a layer-3 link.
type LinkKind int8

// LinkKind values.
const (
	LinkInternal    LinkKind = iota // point-to-point link inside one AS
	LinkInterdomain                 // point-to-point link between two ASes
	LinkIXPLAN                      // shared IXP peering LAN
)

func (k LinkKind) String() string {
	switch k {
	case LinkInternal:
		return "internal"
	case LinkInterdomain:
		return "interdomain"
	case LinkIXPLAN:
		return "ixp-lan"
	default:
		return "unknown"
	}
}

// Link is a layer-3 subnet joining two or more interfaces. Interdomain
// point-to-point links carry the address-assignment convention central to
// the paper: the subnet is usually /30 or /31 supplied by one of the two
// parties (the provider, in a customer-provider relationship).
type Link struct {
	Kind   LinkKind
	Subnet netx.Prefix
	Ifaces []*Iface

	// AddrOwner is the AS whose address space numbers the subnet.
	// For IXP LANs this is the IXP operator's AS.
	AddrOwner ASN

	// Annot carries the link's latency/bandwidth/geo annotation, filled by
	// Build (see annot.go). A zero value means "not yet annotated".
	Annot Annotation
}

// IfaceOn returns the interface on the link belonging to router r, if any.
func (l *Link) IfaceOn(r RouterID) *Iface {
	for _, ifc := range l.Ifaces {
		if ifc.Router == r {
			return ifc
		}
	}
	return nil
}

// Iface is a numbered router interface attached to a link.
type Iface struct {
	Addr   netx.Addr
	Router RouterID
	Link   *Link

	// AttachDelay is extra one-way delay between this interface and the
	// link medium: a remote-peering IXP member reaches the fabric over a
	// long-haul layer-2 circuit, so its LAN interface carries the circuit
	// latency while the shared LAN link itself stays local. Zero for
	// ordinary directly-attached interfaces.
	AttachDelay time.Duration
}

// Router is one physical router. Interfaces appear in attachment order;
// Iface 0 is the conventional "loopback-like" canonical interface when the
// router has one (internal routers), otherwise the first link interface.
type Router struct {
	ID    RouterID
	Owner ASN
	Name  string // diagnostic label, e.g. "bb3.lax"

	// Longitude places the router geographically (degrees east; the paper's
	// figure 16 plots link longitudes across the continental US).
	Longitude float64

	Ifaces []*Iface

	Behavior Behavior
}

// AddIface attaches a new interface to the router and returns it.
func (r *Router) AddIface(addr netx.Addr, link *Link) *Iface {
	ifc := &Iface{Addr: addr, Router: r.ID, Link: link}
	r.Ifaces = append(r.Ifaces, ifc)
	if link != nil {
		link.Ifaces = append(link.Ifaces, ifc)
	}
	return ifc
}

// Addrs returns all interface addresses of the router.
func (r *Router) Addrs() []netx.Addr {
	out := make([]netx.Addr, 0, len(r.Ifaces))
	for _, ifc := range r.Ifaces {
		if !ifc.Addr.IsZero() {
			out = append(out, ifc.Addr)
		}
	}
	return out
}

// CanonicalAddr returns the router's canonical response address (used for
// Mercator-style common source responses): the first numbered interface.
func (r *Router) CanonicalAddr() netx.Addr {
	for _, ifc := range r.Ifaces {
		if !ifc.Addr.IsZero() {
			return ifc.Addr
		}
	}
	return 0
}

func (r *Router) String() string {
	return fmt.Sprintf("R%d(%s,%s)", r.ID, r.Owner, r.Name)
}
