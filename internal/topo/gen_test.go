package topo

import (
	"slices"
	"testing"

	"bdrmap/internal/netx"
)

func TestGenerateTiny(t *testing.T) {
	n := Generate(TinyProfile(), 1)
	s := n.Stats()
	if s.ASes < 10 {
		t.Fatalf("too few ASes: %+v", s)
	}
	if s.Routers == 0 || s.Links == 0 || s.InterdomainLinks == 0 {
		t.Fatalf("missing structure: %+v", s)
	}
	if n.HostASN == 0 {
		t.Fatal("no host ASN")
	}
	if len(n.VPs) != 1 {
		t.Fatalf("VPs = %d", len(n.VPs))
	}
}

// TestGeneratedHostASN: every profile's host network gets
// GeneratedHostASN, whatever the seed, so a caller can name the host of a
// world it has not built.
func TestGeneratedHostASN(t *testing.T) {
	for _, prof := range BuiltinProfiles() {
		for _, seed := range []int64{1, 2} {
			if got := Generate(prof, seed).HostASN; got != GeneratedHostASN {
				t.Errorf("%s seed %d: host %v, want %v", prof.Name, seed, got, GeneratedHostASN)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(TinyProfile(), 42)
	b := Generate(TinyProfile(), 42)
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
	// Interface address sets must be identical.
	for _, r := range a.Routers {
		rb := b.Router(r.ID)
		if rb == nil || rb.Owner != r.Owner || len(rb.Ifaces) != len(r.Ifaces) {
			t.Fatalf("router %d differs", r.ID)
		}
		for i := range r.Ifaces {
			if r.Ifaces[i].Addr != rb.Ifaces[i].Addr {
				t.Fatalf("router %d iface %d addr differs: %v vs %v",
					r.ID, i, r.Ifaces[i].Addr, rb.Ifaces[i].Addr)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(TinyProfile(), 1)
	b := Generate(TinyProfile(), 2)
	// Different seeds should differ somewhere (archetype draws).
	same := true
	for _, ra := range a.Routers {
		rb := b.Router(ra.ID)
		if rb == nil || ra.Behavior != rb.Behavior {
			same = false
			break
		}
	}
	if same && a.Stats() == b.Stats() {
		t.Log("warning: different seeds produced identical structure (possible but unlikely)")
	}
}

func TestHostNeighborCounts(t *testing.T) {
	p := TinyProfile()
	n := Generate(p, 7)
	var cust, peer, prov, sib int
	for _, nb := range n.TrueNeighbors(n.HostASN) {
		switch nb.Rel {
		case RelProvider: // host's neighbor is host's provider when rel is...
			prov++
		case RelCustomer:
			cust++
		case RelPeer:
			peer++
		case RelSibling:
			sib++
		}
	}
	// Relationship stored from the neighbor's perspective then inverted:
	// neighbors with RelCustomer (from host's perspective) are host's
	// customers.
	if cust != p.NumCustomers {
		t.Errorf("customers = %d, want %d", cust, p.NumCustomers)
	}
	wantPeers := p.NumPeers + len(p.CDNs) + p.NumIXPs*p.IXPPeersPerIXP
	if peer != wantPeers {
		t.Errorf("peers = %d, want %d", peer, wantPeers)
	}
	if prov != p.NumProviders {
		t.Errorf("providers = %d, want %d", prov, p.NumProviders)
	}
}

func TestInterdomainLinksHaveTwoParties(t *testing.T) {
	n := Generate(TinyProfile(), 3)
	for _, l := range n.Links {
		if l.Kind != LinkInterdomain {
			continue
		}
		if len(l.Ifaces) != 2 {
			t.Fatalf("interdomain link %v has %d ifaces", l.Subnet, len(l.Ifaces))
		}
		a := n.Router(l.Ifaces[0].Router)
		b := n.Router(l.Ifaces[1].Router)
		if a.Owner == b.Owner {
			t.Fatalf("interdomain link %v joins two routers of %v", l.Subnet, a.Owner)
		}
		if !l.Subnet.Contains(l.Ifaces[0].Addr) || !l.Subnet.Contains(l.Ifaces[1].Addr) {
			t.Fatalf("link %v iface addresses outside subnet", l.Subnet)
		}
	}
}

func TestInternalLinksSameOwnerMostly(t *testing.T) {
	// Internal links join routers of the same organization (siblings and
	// the PA-space multihoming construction are the sanctioned exceptions).
	n := Generate(LargeAccessProfile(), 5)
	for _, l := range n.Links {
		if l.Kind != LinkInternal || len(l.Ifaces) != 2 {
			continue
		}
		a := n.Router(l.Ifaces[0].Router)
		b := n.Router(l.Ifaces[1].Router)
		if a.Owner == b.Owner {
			continue
		}
		oa, ob := n.ASes[a.Owner], n.ASes[b.Owner]
		if oa == nil || ob == nil || oa.Org != ob.Org {
			t.Fatalf("internal link %v joins %v and %v of different orgs", l.Subnet, a.Owner, b.Owner)
		}
	}
}

func TestEveryAnnouncedPrefixHasAnchor(t *testing.T) {
	n := Generate(TinyProfile(), 9)
	for asn, a := range n.ASes {
		for _, p := range a.Prefixes {
			if _, ok := n.Anchor(p); !ok {
				// MOAS co-originated prefixes are anchored by the first
				// origin only.
				if _, moas := n.MultiOrigin[p]; moas {
					continue
				}
				t.Errorf("%v prefix %v has no anchor", asn, p)
			}
		}
	}
}

func TestHostLinkAddressConventions(t *testing.T) {
	// Customer interconnects are mostly numbered from host space; provider
	// interconnects from provider space.
	n := Generate(LargeAccessProfile(), 11)
	host := n.ASes[n.HostASN]
	var custFromHost, custTotal, provFromProv, provTotal int
	for _, lt := range n.InterdomainLinks(n.HostASN) {
		far := n.ASes[lt.FarAS]
		if far == nil {
			continue
		}
		switch host.RelTo(lt.FarAS) {
		case RelProvider: // far AS is host's provider
			provTotal++
			if lt.Link.AddrOwner == lt.FarAS {
				provFromProv++
			}
		case RelCustomer:
			custTotal++
			if lt.Link.AddrOwner == n.HostASN {
				custFromHost++
			}
		}
	}
	if custTotal == 0 || provTotal == 0 {
		t.Fatalf("no customer/provider links (cust=%d prov=%d)", custTotal, provTotal)
	}
	if float64(custFromHost)/float64(custTotal) < 0.8 {
		t.Errorf("only %d/%d customer links numbered from host space", custFromHost, custTotal)
	}
	if provFromProv != provTotal {
		t.Errorf("%d/%d provider links numbered from provider space", provFromProv, provTotal)
	}
}

func TestSiblings(t *testing.T) {
	p := LargeAccessProfile()
	n := Generate(p, 13)
	sibs := n.Siblings(n.HostASN)
	if len(sibs) != p.HostSiblings+1 {
		t.Fatalf("host siblings = %d, want %d", len(sibs), p.HostSiblings+1)
	}
}

func TestIXPStructure(t *testing.T) {
	p := TinyProfile()
	n := Generate(p, 17)
	if len(n.IXPs) != p.NumIXPs {
		t.Fatalf("IXPs = %d", len(n.IXPs))
	}
	ixp := n.IXPs[0]
	if len(ixp.Members) != p.IXPPeersPerIXP+1 { // members + host
		t.Fatalf("members = %d", len(ixp.Members))
	}
	if len(n.Sessions()) != p.NumIXPs*p.IXPPeersPerIXP {
		t.Fatalf("sessions = %d", len(n.Sessions()))
	}
	// Hidden neighbors include all route-server peers.
	for _, s := range n.Sessions() {
		peer := s.B
		if s.A != n.HostASN {
			peer = s.A
		}
		if !n.HiddenNeighbors[peer] {
			t.Errorf("IXP peer %v not marked hidden", peer)
		}
	}
}

func TestAttachmentsIndex(t *testing.T) {
	n := Generate(TinyProfile(), 21)
	at := n.Attachments(n.HostASN)
	if len(at) == 0 {
		t.Fatal("host has no attachments")
	}
	for _, a := range at {
		if n.Router(a.LocalRtr).Owner != n.HostASN && n.ASes[n.Router(a.LocalRtr).Owner].Org != "org-host" {
			t.Fatalf("attachment local router %d not host-owned", a.LocalRtr)
		}
		if a.Remote == n.HostASN {
			t.Fatalf("attachment remote is host itself")
		}
	}
}

func TestDelegationsCoverInfraAndHidden(t *testing.T) {
	n := Generate(TinyProfile(), 23)
	var tr netx.Trie[string]
	for _, d := range n.Delegations {
		tr.Insert(d.Prefix, d.OrgID)
	}
	// Every router interface address must fall inside some delegation
	// (except IXP LAN space which belongs to the IXP operator org).
	for _, r := range n.Routers {
		for _, ifc := range r.Ifaces {
			if ifc.Addr.IsZero() {
				continue
			}
			if _, ok := tr.Lookup(ifc.Addr); !ok {
				t.Errorf("iface %v of %v not covered by any delegation", ifc.Addr, r)
			}
		}
	}
}

func TestOriginTableMOAS(t *testing.T) {
	p := TinyProfile()
	n := Generate(p, 29)
	if len(n.MultiOrigin) != p.MOASPairs {
		t.Fatalf("MOAS pairs = %d, want %d", len(n.MultiOrigin), p.MOASPairs)
	}
	for pfx, origins := range n.MultiOrigin {
		for _, o := range origins {
			if !slices.Contains(n.ASes[o].Prefixes, pfx) {
				t.Fatalf("MOAS prefix %v not announced by origin %v (origins %v)", pfx, o, origins)
			}
		}
	}
}

func TestAllocatorNoOverlap(t *testing.T) {
	al := NewAllocator()
	var ps []netx.Prefix
	for i := 0; i < 50; i++ {
		ps = append(ps, al.Next(14+i%6))
	}
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			if ps[i].Overlaps(ps[j]) {
				t.Fatalf("allocations overlap: %v and %v", ps[i], ps[j])
			}
		}
	}
}

func TestAllocatorSub(t *testing.T) {
	al := NewAllocator()
	parent := al.Next(16)
	seen := map[netx.Prefix]bool{}
	for i := 0; i < 100; i++ {
		s := al.Sub(parent, 31)
		if !parent.ContainsPrefix(s) {
			t.Fatalf("sub %v outside parent %v", s, parent)
		}
		if seen[s] {
			t.Fatalf("duplicate sub-allocation %v", s)
		}
		seen[s] = true
	}
}

func TestRelInvert(t *testing.T) {
	if RelCustomer.Invert() != RelProvider || RelProvider.Invert() != RelCustomer {
		t.Error("customer/provider inversion broken")
	}
	if RelPeer.Invert() != RelPeer || RelSibling.Invert() != RelSibling {
		t.Error("symmetric relationships must self-invert")
	}
}

func TestProfilesGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("profile generation in -short mode")
	}
	for _, p := range []Profile{REProfile(), SmallAccessProfile(),
		RemotePeeringProfile(), HypergiantProfile(), RouteServerMixProfile(), RegionalVPProfile()} {
		n := Generate(p, 1)
		s := n.Stats()
		if s.InterdomainLinks == 0 || s.Routers == 0 {
			t.Errorf("%s: empty topology %+v", p.Name, s)
		}
		if len(n.VPs) != p.NumVPs {
			t.Errorf("%s: VPs = %d, want %d", p.Name, len(n.VPs), p.NumVPs)
		}
	}
}

func TestVPAddressesUnique(t *testing.T) {
	n := Generate(LargeAccessProfile(), 31)
	seen := map[netx.Addr]bool{}
	if len(n.VPs) != 19 {
		t.Fatalf("VPs = %d", len(n.VPs))
	}
	for _, vp := range n.VPs {
		if seen[vp.Addr] {
			t.Fatalf("duplicate VP address %v", vp.Addr)
		}
		seen[vp.Addr] = true
		if n.Router(vp.Router) == nil {
			t.Fatalf("VP %s attached to missing router", vp.Name)
		}
	}
}
