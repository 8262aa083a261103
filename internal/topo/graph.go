package topo

import (
	"sort"

	"bdrmap/internal/netx"
)

// Adj is one layer-3 adjacency of a router: the peer interface and the
// link joining it to the router. IXP LANs produce one Adj per peering
// session crossing the LAN.
type Adj struct {
	Peer *Iface
	Link *Link
}

// Attachment describes one interdomain attachment of an AS: a local border
// router joined to a remote AS's router, either over a point-to-point
// interdomain link or an IXP LAN peering session.
type Attachment struct {
	Link      *Link
	LocalRtr  RouterID
	Remote    ASN
	RemoteRtr RouterID
}

// IXPSession is a BGP peering session established across an IXP LAN.
type IXPSession struct {
	IXP        int // index into Network.IXPs
	A, B       ASN
	ARtr, BRtr RouterID
}

// PrefixAnchor designates the router a prefix's traffic terminates at
// inside its origin AS, and whether probes to addresses in the prefix
// receive echo replies (as if a host answered).
type PrefixAnchor struct {
	Router  RouterID
	Replies bool
}

// graphIndex holds adjacency structures derived from the link set.
type graphIndex struct {
	internalAdj map[RouterID][]Adj
	attachments map[ASN][]Attachment
	// anchor per (origin AS, prefix)
	anchors map[netx.Prefix]PrefixAnchor
	// pinnedLinks restricts announcement of a prefix by its origin to a
	// set of interdomain links (AnnouncePinned / AnnounceCoastal, §6).
	// A prefix absent from the map is announced on all links.
	pinnedLinks map[netx.Prefix]map[*Link]bool
}

// Sessions lists IXP peering sessions.
func (n *Network) Sessions() []IXPSession { return n.ixpSessions }

// AddIXPSession records a peering session between members a and b of IXP
// index ix, attached at the given routers (which must hold LAN interfaces).
func (n *Network) AddIXPSession(ix int, a ASN, aRtr RouterID, b ASN, bRtr RouterID) {
	n.ixpSessions = append(n.ixpSessions, IXPSession{IXP: ix, A: a, ARtr: aRtr, B: b, BRtr: bRtr})
}

// SetAnchor designates where traffic to prefix p terminates.
func (n *Network) SetAnchor(p netx.Prefix, r RouterID, replies bool) {
	if n.idx == nil {
		n.idx = newGraphIndex()
	}
	n.idx.anchors[p] = PrefixAnchor{Router: r, Replies: replies}
}

// Anchor returns the anchor for prefix p.
func (n *Network) Anchor(p netx.Prefix) (PrefixAnchor, bool) {
	if n.idx == nil {
		return PrefixAnchor{}, false
	}
	a, ok := n.idx.anchors[p]
	return a, ok
}

// PinPrefix restricts the origin's announcement of p to the given
// interdomain links (selective announcement; Akamai/Google-like policies).
func (n *Network) PinPrefix(p netx.Prefix, links []*Link) {
	if n.idx == nil {
		n.idx = newGraphIndex()
	}
	m := make(map[*Link]bool, len(links))
	for _, l := range links {
		m[l] = true
	}
	n.idx.pinnedLinks[p] = m
}

// AnnouncedOnLink reports whether prefix p is announced by its origin over
// interdomain link l. Unpinned prefixes are announced everywhere.
func (n *Network) AnnouncedOnLink(p netx.Prefix, l *Link) bool {
	if n.idx == nil {
		return true
	}
	m, pinned := n.idx.pinnedLinks[p]
	if !pinned {
		return true
	}
	return m[l]
}

// IsPinned reports whether prefix p has a pinned (selective) announcement,
// which may be to no link at all.
func (n *Network) IsPinned(p netx.Prefix) bool {
	if n.idx == nil {
		return false
	}
	_, pinned := n.idx.pinnedLinks[p]
	return pinned
}

// AnchorRecord pairs a prefix with its anchor, for enumeration.
type AnchorRecord struct {
	Prefix netx.Prefix
	PrefixAnchor
}

// Anchors enumerates all prefix anchors, sorted by prefix.
func (n *Network) Anchors() []AnchorRecord {
	if n.idx == nil {
		return nil
	}
	out := make([]AnchorRecord, 0, len(n.idx.anchors))
	for p, a := range n.idx.anchors {
		out = append(out, AnchorRecord{Prefix: p, PrefixAnchor: a})
	}
	sort.Slice(out, func(i, j int) bool { return netx.ComparePrefix(out[i].Prefix, out[j].Prefix) < 0 })
	return out
}

// PinnedLinksOf returns the links prefix p is pinned to (nil if unpinned).
func (n *Network) PinnedLinksOf(p netx.Prefix) []*Link {
	if n.idx == nil {
		return nil
	}
	m := n.idx.pinnedLinks[p]
	if m == nil {
		return nil
	}
	out := make([]*Link, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		return netx.ComparePrefix(out[i].Subnet, out[j].Subnet) < 0
	})
	return out
}

// PinnedPrefixes returns all prefixes with pinned announcements.
func (n *Network) PinnedPrefixes() []netx.Prefix {
	if n.idx == nil {
		return nil
	}
	out := make([]netx.Prefix, 0, len(n.idx.pinnedLinks))
	for p := range n.idx.pinnedLinks {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return netx.ComparePrefix(out[i], out[j]) < 0 })
	return out
}

func newGraphIndex() *graphIndex {
	return &graphIndex{
		anchors:     make(map[netx.Prefix]PrefixAnchor),
		pinnedLinks: make(map[netx.Prefix]map[*Link]bool),
	}
}

// Build finalizes the network: it computes internal adjacency,
// interdomain attachment and sibling indexes. Call after construction and before
// routing or probing. Build is idempotent.
func (n *Network) Build() {
	if n.idx == nil {
		n.idx = newGraphIndex()
	}
	n.idx.internalAdj = make(map[RouterID][]Adj)
	n.idx.attachments = make(map[ASN][]Attachment)
	n.annotate()
	n.indexSiblings()

	for _, l := range n.Links {
		switch l.Kind {
		case LinkInternal:
			if len(l.Ifaces) != 2 {
				continue
			}
			a, b := l.Ifaces[0], l.Ifaces[1]
			n.idx.internalAdj[a.Router] = append(n.idx.internalAdj[a.Router], Adj{Peer: b, Link: l})
			n.idx.internalAdj[b.Router] = append(n.idx.internalAdj[b.Router], Adj{Peer: a, Link: l})
		case LinkInterdomain:
			if len(l.Ifaces) != 2 {
				continue
			}
			a, b := l.Ifaces[0], l.Ifaces[1]
			ra, rb := n.Router(a.Router), n.Router(b.Router)
			n.idx.attachments[ra.Owner] = append(n.idx.attachments[ra.Owner],
				Attachment{Link: l, LocalRtr: ra.ID, Remote: rb.Owner, RemoteRtr: rb.ID})
			n.idx.attachments[rb.Owner] = append(n.idx.attachments[rb.Owner],
				Attachment{Link: l, LocalRtr: rb.ID, Remote: ra.Owner, RemoteRtr: ra.ID})
		}
	}
	// IXP sessions become attachments over the LAN link.
	for _, s := range n.ixpSessions {
		lan := n.ixpLAN(s.IXP)
		if lan == nil {
			continue
		}
		n.idx.attachments[s.A] = append(n.idx.attachments[s.A],
			Attachment{Link: lan, LocalRtr: s.ARtr, Remote: s.B, RemoteRtr: s.BRtr})
		n.idx.attachments[s.B] = append(n.idx.attachments[s.B],
			Attachment{Link: lan, LocalRtr: s.BRtr, Remote: s.A, RemoteRtr: s.ARtr})
	}
	// Deterministic ordering.
	for asn := range n.idx.attachments {
		at := n.idx.attachments[asn]
		sort.Slice(at, func(i, j int) bool {
			if at[i].LocalRtr != at[j].LocalRtr {
				return at[i].LocalRtr < at[j].LocalRtr
			}
			if at[i].Remote != at[j].Remote {
				return at[i].Remote < at[j].Remote
			}
			return at[i].RemoteRtr < at[j].RemoteRtr
		})
		n.idx.attachments[asn] = at
	}
}

// ixpLAN returns the LAN link of IXP index ix (matched by subnet).
func (n *Network) ixpLAN(ix int) *Link {
	if ix < 0 || ix >= len(n.IXPs) {
		return nil
	}
	want := n.IXPs[ix].LAN
	for _, l := range n.Links {
		if l.Kind == LinkIXPLAN && l.Subnet == want {
			return l
		}
	}
	return nil
}

// InternalNeighbors returns the intra-AS adjacencies of router r.
func (n *Network) InternalNeighbors(r RouterID) []Adj {
	if n.idx == nil {
		return nil
	}
	return n.idx.internalAdj[r]
}

// Attachments returns the interdomain attachments of asn.
func (n *Network) Attachments(asn ASN) []Attachment {
	if n.idx == nil {
		return nil
	}
	return n.idx.attachments[asn]
}
