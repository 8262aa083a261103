// Package ixp assembles the list of IXP peering-LAN prefixes bdrmap uses
// to recognize exchange-point addresses in traceroute (§5.2). Mirroring the
// paper, two imperfect sources — a PeeringDB-like registry and PCH-like
// route-collector observations — are merged, because "not all PeeringDB
// records are correct... and many IXPs are missing from the database".
package ixp

import (
	"math/rand"
	"sort"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// PDBRecord is a PeeringDB-style entry: an operator-maintained record of an
// IXP's peering LAN. Stale reports the record no longer matches reality.
type PDBRecord struct {
	IXPName string
	Prefix  netx.Prefix
	Stale   bool
}

// PCHRecord is a PCH-style observation: an (address, ASN) pair seen
// establishing BGP at a PCH route collector hosted at the IXP.
type PCHRecord struct {
	IXPName string
	Addr    netx.Addr
	ASN     topo.ASN
}

// Sources carries both datasets before merging.
type Sources struct {
	PeeringDB []PDBRecord
	PCH       []PCHRecord
}

// FromNetwork derives the two datasets from the synthetic topology,
// injecting the real-world defects: a fraction of IXPs are missing from
// PeeringDB, some PeeringDB prefixes are stale (they point at address
// space no longer used by the IXP), and PCH only observes members that
// peer with its collector.
func FromNetwork(net *topo.Network, seed int64) Sources {
	rng := rand.New(rand.NewSource(seed))
	var src Sources
	for _, x := range net.IXPs {
		inPDB := rng.Float64() < 0.8
		if inPDB {
			rec := PDBRecord{IXPName: x.Name, Prefix: x.LAN}
			if rng.Float64() < 0.1 {
				// Stale record: an old LAN prefix unrelated to reality.
				rec.Prefix = netx.MakePrefix(netx.MustParseAddr("203.0.113.0"), 24)
				rec.Stale = true
			}
			src.PeeringDB = append(src.PeeringDB, rec)
		}
		// PCH observes roughly half the members.
		for i, m := range x.Members {
			if rng.Float64() > 0.5 && i > 0 {
				continue
			}
			addr := memberLANAddr(net, x, m)
			if addr != 0 {
				src.PCH = append(src.PCH, PCHRecord{IXPName: x.Name, Addr: addr, ASN: m})
			}
		}
	}
	return src
}

func memberLANAddr(net *topo.Network, x *topo.IXP, member topo.ASN) netx.Addr {
	a := net.ASes[member]
	if a == nil {
		return 0
	}
	for _, r := range a.Routers {
		for _, ifc := range r.Ifaces {
			if x.LAN.Contains(ifc.Addr) {
				return ifc.Addr
			}
		}
	}
	return 0
}

// PrefixList is the merged set of IXP LAN prefixes, queryable by address.
type PrefixList struct {
	trie     netx.Trie[string] // prefix → IXP name
	prefixes []netx.Prefix
	// memberAddrs maps LAN addresses to the ASN operators recorded for
	// them (used for validation, §5.6).
	memberAddrs map[netx.Addr]topo.ASN
}

// Merge combines both sources into the working prefix list. PeeringDB
// supplies prefixes directly; PCH observations contribute the /24 subnet...
// more precisely, the enclosing /24 of each observed peering address, which
// recovers IXPs missing from (or stale in) PeeringDB.
func Merge(src Sources) *PrefixList {
	pl := &PrefixList{memberAddrs: make(map[netx.Addr]topo.ASN)}
	seen := make(map[netx.Prefix]bool)
	add := func(p netx.Prefix, name string) {
		if !seen[p] {
			seen[p] = true
			pl.trie.Insert(p, name)
			pl.prefixes = append(pl.prefixes, p)
		}
	}
	for _, r := range src.PeeringDB {
		add(r.Prefix, r.IXPName)
	}
	for _, r := range src.PCH {
		add(netx.MakePrefix(r.Addr, 24), r.IXPName)
		pl.memberAddrs[r.Addr] = r.ASN
	}
	sort.Slice(pl.prefixes, func(i, j int) bool {
		return netx.ComparePrefix(pl.prefixes[i], pl.prefixes[j]) < 0
	})
	return pl
}

// IsIXP reports whether addr falls inside a known IXP LAN prefix,
// returning the IXP name.
func (pl *PrefixList) IsIXP(addr netx.Addr) (string, bool) {
	return pl.trie.Lookup(addr)
}

// MemberAt returns the ASN recorded (by PCH) for a LAN address, if any.
// Used to validate ownership inferences against IXP-published data.
func (pl *PrefixList) MemberAt(addr netx.Addr) (topo.ASN, bool) {
	asn, ok := pl.memberAddrs[addr]
	return asn, ok
}
