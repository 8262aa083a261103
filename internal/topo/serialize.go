package topo

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"bdrmap/internal/netx"
)

// JSON serialization of a complete network, so a generated world can be
// stored, shared, and measured separately from generation (topogen -save /
// bdrmap -topo). Pointer structure (interfaces ↔ links ↔ routers) is
// encoded by index and rebuilt on load; Save/Load round-trip exactly.

type netJSON struct {
	Version     int            `json:"version"`
	HostASN     ASN            `json:"host_asn"`
	AnnotSeed   int64          `json:"annot_seed,omitempty"`
	ASes        []asJSON       `json:"ases"`
	Routers     []rtrJSON      `json:"routers"`
	Links       []linkJSON     `json:"links"`
	IXPs        []ixpJSON      `json:"ixps"`
	VPs         []vpJSON       `json:"vps"`
	Sessions    []sessJSON     `json:"sessions,omitempty"`
	Delegations []delJSON      `json:"delegations,omitempty"`
	MultiOrigin []moasJSON     `json:"multi_origin,omitempty"`
	Hidden      []ASN          `json:"hidden,omitempty"`
	Tags        map[string]ASN `json:"tags,omitempty"`
	Anchors     []anchorJSON   `json:"anchors,omitempty"`
	Pins        []pinJSON      `json:"pins,omitempty"`
	Rels        []relJSON      `json:"rels"`
}

// relJSON records one AS relationship: A is Rel of B.
type relJSON struct {
	A   ASN  `json:"a"`
	B   ASN  `json:"b"`
	Rel int8 `json:"rel"`
}

type asJSON struct {
	ASN           ASN           `json:"asn"`
	Tier          int8          `json:"tier"`
	Org           string        `json:"org"`
	Prefixes      []netx.Prefix `json:"prefixes,omitempty"`
	Infra         *netx.Prefix  `json:"infra,omitempty"`
	AnnounceInfra bool          `json:"announce_infra,omitempty"`
	Policy        int8          `json:"policy,omitempty"`
}

type rtrJSON struct {
	Owner    ASN      `json:"owner"`
	Name     string   `json:"name"`
	Lon      float64  `json:"lon"`
	Behavior Behavior `json:"behavior"`
}

type linkJSON struct {
	Kind      int8        `json:"kind"`
	Subnet    netx.Prefix `json:"subnet"`
	AddrOwner ASN         `json:"addr_owner"`
	// Ifaces: (router index, address) pairs in attachment order.
	Ifaces []ifaceJSON `json:"ifaces"`
	Annot  *annotJSON  `json:"annot,omitempty"`
}

type annotJSON struct {
	LatencyNS     int64   `json:"latency_ns"`
	BandwidthMbps int     `json:"bw_mbps"`
	LonA          float64 `json:"lon_a"`
	LonB          float64 `json:"lon_b"`
}

type ifaceJSON struct {
	Router RouterID  `json:"router"`
	Addr   netx.Addr `json:"addr"`
	// AttachNS is the interface's AttachDelay in nanoseconds (remote
	// peering circuits); omitted when zero.
	AttachNS int64 `json:"attach_ns,omitempty"`
}

type ixpJSON struct {
	Name         string      `json:"name"`
	OperatorASN  ASN         `json:"operator"`
	LAN          netx.Prefix `json:"lan"`
	Members      []ASN       `json:"members"`
	AnnouncesLAN bool        `json:"announces_lan"`
	Longitude    float64     `json:"lon"`
	Remote       []ASN       `json:"remote,omitempty"`
	Bilateral    []ASN       `json:"bilateral,omitempty"`
}

type vpJSON struct {
	Name   string    `json:"name"`
	Host   ASN       `json:"host"`
	Router RouterID  `json:"router"`
	Addr   netx.Addr `json:"addr"`
}

type sessJSON struct {
	IXP  int      `json:"ixp"`
	A    ASN      `json:"a"`
	ARtr RouterID `json:"a_rtr"`
	B    ASN      `json:"b"`
	BRtr RouterID `json:"b_rtr"`
}

type delJSON struct {
	Org    string      `json:"org"`
	Prefix netx.Prefix `json:"prefix"`
}

type moasJSON struct {
	Prefix  netx.Prefix `json:"prefix"`
	Origins []ASN       `json:"origins"`
}

type anchorJSON struct {
	Prefix  netx.Prefix `json:"prefix"`
	Router  RouterID    `json:"router"`
	Replies bool        `json:"replies,omitempty"`
}

type pinJSON struct {
	Prefix netx.Prefix `json:"prefix"`
	Links  []int       `json:"links"` // indexes into Links
}

// Save serializes the network as JSON.
func (n *Network) Save(w io.Writer) error {
	out := netJSON{
		Version:   1,
		HostASN:   n.HostASN,
		AnnotSeed: n.AnnotSeed,
		Tags:      n.Tags,
	}
	for _, asn := range n.ASNs() {
		a := n.ASes[asn]
		aj := asJSON{
			ASN: asn, Tier: int8(a.Tier), Org: a.Org, Prefixes: a.Prefixes,
			AnnounceInfra: a.AnnounceInfra, Policy: int8(a.Policy),
		}
		if a.Infra.IsValid() && a.Infra.NumAddrs() < 1<<32 {
			aj.Infra = &a.Infra
		}
		out.ASes = append(out.ASes, aj)
	}
	for _, r := range n.Routers {
		out.Routers = append(out.Routers, rtrJSON{
			Owner: r.Owner, Name: r.Name, Lon: r.Longitude, Behavior: r.Behavior,
		})
	}
	linkIdx := make(map[*Link]int, len(n.Links))
	for i, l := range n.Links {
		linkIdx[l] = i
		lj := linkJSON{Kind: int8(l.Kind), Subnet: l.Subnet, AddrOwner: l.AddrOwner}
		for _, ifc := range l.Ifaces {
			lj.Ifaces = append(lj.Ifaces, ifaceJSON{
				Router: ifc.Router, Addr: ifc.Addr, AttachNS: int64(ifc.AttachDelay),
			})
		}
		if l.Annot != (Annotation{}) {
			lj.Annot = &annotJSON{
				LatencyNS:     int64(l.Annot.Latency),
				BandwidthMbps: l.Annot.BandwidthMbps,
				LonA:          l.Annot.LonA,
				LonB:          l.Annot.LonB,
			}
		}
		out.Links = append(out.Links, lj)
	}
	for _, x := range n.IXPs {
		out.IXPs = append(out.IXPs, ixpJSON{
			Name: x.Name, OperatorASN: x.OperatorASN, LAN: x.LAN,
			Members: x.Members, AnnouncesLAN: x.AnnouncesLAN, Longitude: x.Longitude,
			Remote: x.Remote, Bilateral: x.Bilateral,
		})
	}
	for _, vp := range n.VPs {
		out.VPs = append(out.VPs, vpJSON{Name: vp.Name, Host: vp.Host, Router: vp.Router, Addr: vp.Addr})
	}
	for _, s := range n.Sessions() {
		out.Sessions = append(out.Sessions, sessJSON{IXP: s.IXP, A: s.A, ARtr: s.ARtr, B: s.B, BRtr: s.BRtr})
	}
	for _, d := range n.Delegations {
		out.Delegations = append(out.Delegations, delJSON{Org: d.OrgID, Prefix: d.Prefix})
	}
	var moasPrefixes []netx.Prefix
	for p := range n.MultiOrigin {
		moasPrefixes = append(moasPrefixes, p)
	}
	sort.Slice(moasPrefixes, func(i, j int) bool { return netx.ComparePrefix(moasPrefixes[i], moasPrefixes[j]) < 0 })
	for _, p := range moasPrefixes {
		out.MultiOrigin = append(out.MultiOrigin, moasJSON{Prefix: p, Origins: n.MultiOrigin[p]})
	}
	for asn := range n.HiddenNeighbors {
		out.Hidden = append(out.Hidden, asn)
	}
	sort.Slice(out.Hidden, func(i, j int) bool { return out.Hidden[i] < out.Hidden[j] })
	for _, a := range n.Anchors() {
		out.Anchors = append(out.Anchors, anchorJSON{Prefix: a.Prefix, Router: a.Router, Replies: a.Replies})
	}
	for _, p := range n.PinnedPrefixes() {
		pj := pinJSON{Prefix: p}
		for _, l := range n.PinnedLinksOf(p) {
			pj.Links = append(pj.Links, linkIdx[l])
		}
		out.Pins = append(out.Pins, pj)
	}
	for _, asn := range n.ASNs() {
		for _, nb := range n.ASes[asn].Neighbors() {
			if nb.ASN <= asn {
				continue // record each pair once
			}
			// nb.Rel is what nb.ASN is to asn.
			out.Rels = append(out.Rels, relJSON{A: nb.ASN, B: asn, Rel: int8(nb.Rel)})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load reconstructs a network saved with Save, including all indexes
// (Build is called internally).
func Load(r io.Reader) (*Network, error) {
	var in netJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("topo: load: %w", err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("topo: unsupported version %d", in.Version)
	}
	n := NewNetwork()
	n.HostASN = in.HostASN
	n.AnnotSeed = in.AnnotSeed
	if in.Tags != nil {
		n.Tags = in.Tags
	}
	for _, aj := range in.ASes {
		a := n.AddAS(aj.ASN, Tier(aj.Tier), aj.Org)
		a.AnnounceInfra = aj.AnnounceInfra
		a.Policy = AnnouncePolicy(aj.Policy)
		a.Prefixes = aj.Prefixes
		if aj.Infra != nil {
			a.Infra = *aj.Infra
		}
	}
	for _, rj := range in.Routers {
		r := n.AddRouter(rj.Owner, rj.Name, rj.Lon)
		r.Behavior = rj.Behavior
	}
	for _, lj := range in.Links {
		l := n.AddLink(LinkKind(lj.Kind), lj.Subnet, lj.AddrOwner)
		if lj.Annot != nil {
			l.Annot = Annotation{
				Latency:       time.Duration(lj.Annot.LatencyNS),
				BandwidthMbps: lj.Annot.BandwidthMbps,
				LonA:          lj.Annot.LonA,
				LonB:          lj.Annot.LonB,
			}
		}
		for _, ij := range lj.Ifaces {
			r := n.Router(ij.Router)
			if r == nil {
				return nil, fmt.Errorf("topo: load: link references missing router %d", ij.Router)
			}
			ifc := r.AddIface(ij.Addr, l)
			ifc.AttachDelay = time.Duration(ij.AttachNS)
			n.RegisterIface(ifc)
		}
	}
	for _, xj := range in.IXPs {
		n.IXPs = append(n.IXPs, &IXP{
			Name: xj.Name, OperatorASN: xj.OperatorASN, LAN: xj.LAN,
			Members: xj.Members, AnnouncesLAN: xj.AnnouncesLAN, Longitude: xj.Longitude,
			Remote: xj.Remote, Bilateral: xj.Bilateral,
		})
	}
	for _, vj := range in.VPs {
		n.VPs = append(n.VPs, &VP{Name: vj.Name, Host: vj.Host, Router: vj.Router, Addr: vj.Addr})
	}
	for _, sj := range in.Sessions {
		n.AddIXPSession(sj.IXP, sj.A, sj.ARtr, sj.B, sj.BRtr)
	}
	for _, dj := range in.Delegations {
		n.Delegations = append(n.Delegations, DelegationRecord{OrgID: dj.Org, Prefix: dj.Prefix})
	}
	for _, mj := range in.MultiOrigin {
		n.MultiOrigin[mj.Prefix] = mj.Origins
	}
	for _, h := range in.Hidden {
		if n.HiddenNeighbors == nil {
			n.HiddenNeighbors = make(map[ASN]bool)
		}
		n.HiddenNeighbors[h] = true
	}
	for _, aj := range in.Anchors {
		n.SetAnchor(aj.Prefix, aj.Router, aj.Replies)
	}
	for _, pj := range in.Pins {
		var links []*Link
		for _, i := range pj.Links {
			if i < 0 || i >= len(n.Links) {
				return nil, fmt.Errorf("topo: load: pin references missing link %d", i)
			}
			links = append(links, n.Links[i])
		}
		n.PinPrefix(pj.Prefix, links)
	}
	for _, rj := range in.Rels {
		n.SetRel(rj.A, rj.B, Rel(rj.Rel))
	}
	n.Build()
	return n, nil
}
