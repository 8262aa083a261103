package probe

import (
	"testing"

	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// buildFig1 reconstructs the paper's figure 1 scenario: the host X is a
// customer of B only via B's *other* provider path... concretely:
//
//	vp -- r1(X) ==== rb(B) ---- rc(C)        X-B link from X's space
//	                   \ B-C link from C's space; B's route back to the
//	                     VP prefix runs via C (X announces the VP prefix
//	                     selectively, not on the X-B session)
//
// When rb sources TTL-expired responses from its egress toward the
// prober (SourceEgressToProbe) and its best route to the VP runs via C,
// the response carries C's address: a third-party address (§4).
func buildFig1(t *testing.T) (*topo.Network, *Engine, *topo.VP, netx.Addr, netx.Addr) {
	t.Helper()
	n := topo.NewNetwork()
	al := topo.NewAllocator()
	x := n.AddAS(100, topo.TierAccess, "org-x")
	b := n.AddAS(200, topo.TierStub, "org-b")
	c := n.AddAS(300, topo.TierTransit, "org-c")
	n.HostASN = 100
	for _, as := range []*topo.AS{x, b, c} {
		p := al.Next(16)
		as.Prefixes = []netx.Prefix{p}
		as.Infra = p
	}
	// Relationships: B buys from C; X buys from C; X-B are peers.
	n.SetRel(200, 300, topo.RelCustomer)
	n.SetRel(100, 300, topo.RelCustomer)
	n.SetRel(100, 200, topo.RelPeer)

	r1 := n.AddRouter(100, "r1", -100)
	rb := n.AddRouter(200, "rb", -100)
	rc := n.AddRouter(300, "rc", -100)
	rbCore := n.AddRouter(200, "rb-core", -100)

	n.ConnectPtP(r1, rb, al.Sub(x.Infra, 31), topo.LinkInterdomain, 100)
	bc := n.ConnectPtP(rb, rc, al.Sub(c.Infra, 31), topo.LinkInterdomain, 300)
	n.ConnectPtP(rb, rbCore, al.Sub(b.Infra, 31), topo.LinkInternal, 200)
	xc := n.ConnectPtP(r1, rc, al.Sub(c.Infra, 31), topo.LinkInterdomain, 300)
	_ = xc

	rb.Behavior.SourceEgressToProbe = true
	n.SetAnchor(b.Infra, rbCore.ID, true)
	n.SetAnchor(c.Infra, rc.ID, true)

	// VP prefix: a second prefix of X announced only via C (selective
	// announcement), so B's best route back to the VP runs via C.
	vpPfx := al.Next(20)
	x.Prefixes = append(x.Prefixes, vpPfx)
	n.SetAnchor(vpPfx, r1.ID, true)
	n.SetAnchor(x.Infra, r1.ID, true)
	// Pin the VP prefix away from the X-B peering: announce only on the
	// X-C link.
	n.PinPrefix(vpPfx, []*topo.Link{xc})

	vpLink := al.Sub(vpPfx, 31)
	l := n.AddLink(topo.LinkInternal, vpLink, 100)
	accIf := r1.AddIface(vpLink.First(), l)
	n.RegisterIface(accIf)
	vp := &topo.VP{Name: "vp", Host: 100, Router: r1.ID, Addr: vpLink.First() + 1}
	n.VPs = append(n.VPs, vp)
	n.Build()

	e := New(n, bgp.NewTable(n))
	return n, e, vp, b.Infra.First() + 100, bc.IfaceOn(rb.ID).Addr
}

func TestThirdPartySourceAddress(t *testing.T) {
	_, e, vp, dstInB, rbViaC := buildFig1(t)
	res := e.NewLane(vp, 0).Trace(dstInB, nil, nil)
	if len(res.Hops) < 2 {
		t.Fatalf("hops: %+v", res.Hops)
	}
	hop2 := res.Hops[1]
	if hop2.Type != HopTimeExceeded {
		t.Fatalf("hop 2 = %+v", hop2)
	}
	// rb must answer with its interface on the B-C link (C's space): a
	// third-party address per §4 challenge 2.
	if hop2.Addr != rbViaC {
		t.Fatalf("rb answered with %v, want third-party %v", hop2.Addr, rbViaC)
	}
}

func TestIXPLANInboundAddress(t *testing.T) {
	// Traces crossing an IXP LAN must show the far member's LAN address
	// (IXP space) as the inbound interface (§4 challenge 6).
	n := topo.Generate(topo.TinyProfile(), 1)
	e := New(n, bgp.NewTable(n))
	lane := e.NewLane(n.VPs[0], 0)
	if len(n.IXPs) == 0 || len(n.Sessions()) == 0 {
		t.Skip("no IXPs in this profile")
	}
	lan := n.IXPs[0].LAN
	found := false
	for _, s := range n.Sessions() {
		peer := s.B
		if s.A != n.HostASN {
			peer = s.A
		}
		p := n.ASes[peer].Prefixes[0]
		res := lane.Trace(p.First()+1, nil, nil)
		for _, h := range res.Hops {
			if h.Type == HopTimeExceeded && lan.Contains(h.Addr) {
				found = true
				if owner := n.OwnerOfAddr(h.Addr); owner != peer {
					t.Fatalf("LAN hop %v owned by %v, expected member %v", h.Addr, owner, peer)
				}
			}
		}
	}
	if !found {
		t.Error("no trace ever showed an IXP LAN inbound address")
	}
}

func TestUnreachableFromQuietAnchor(t *testing.T) {
	// A trace that reaches a prefix whose anchor does not answer echo
	// requests ends with a destination-unreachable from the last router
	// (the §5.4.8 "other ICMP" signal), unless that router suppresses
	// unreachables too.
	n := topo.Generate(topo.TinyProfile(), 3)
	e := New(n, bgp.NewTable(n))
	lane := e.NewLane(n.VPs[0], 0)
	sawUnreachable := false
	for _, p := range e.Tab.Prefixes() {
		res := lane.Trace(p.First()+3, nil, nil)
		for i, h := range res.Hops {
			if h.Type == HopUnreachable {
				sawUnreachable = true
				if i != len(res.Hops)-1 {
					t.Fatalf("unreachable mid-trace: %+v", res.Hops)
				}
				if res.Reached {
					t.Fatal("trace both reached and unreachable")
				}
				if n.IfaceByAddr(h.Addr) == nil {
					t.Fatalf("unreachable source %v is not a real interface", h.Addr)
				}
				if h.RTT == 0 {
					t.Fatal("unreachable hop missing RTT")
				}
			}
		}
	}
	if !sawUnreachable {
		t.Error("no destination unreachables observed across all prefixes")
	}
}

func TestGapLimitStopsTrace(t *testing.T) {
	// A run of silent routers longer than the gap limit abandons the
	// trace (scamper behaviour).
	n := topo.NewNetwork()
	al := topo.NewAllocator()
	x := n.AddAS(1, topo.TierAccess, "org")
	n.HostASN = 1
	p := al.Next(16)
	x.Prefixes = []netx.Prefix{p}
	x.Infra = p
	var routers []*topo.Router
	for i := 0; i < 10; i++ {
		r := n.AddRouter(1, "r", 0)
		if i > 0 {
			n.ConnectPtP(routers[i-1], r, al.Sub(p, 31), topo.LinkInternal, 1)
		}
		if i >= 2 { // everything past r1 is silent
			r.Behavior.NoTTLExpired = true
			r.Behavior.NoEchoReply = true
		}
		routers = append(routers, r)
	}
	n.SetAnchor(p, routers[9].ID, false)
	vpLink := al.Sub(p, 31)
	l := n.AddLink(topo.LinkInternal, vpLink, 1)
	accIf := routers[0].AddIface(vpLink.First(), l)
	n.RegisterIface(accIf)
	vp := &topo.VP{Name: "vp", Host: 1, Router: routers[0].ID, Addr: vpLink.First() + 1}
	n.VPs = append(n.VPs, vp)
	n.Build()

	e := New(n, bgp.NewTable(n))
	res := e.NewLane(vp, 0).Trace(p.First()+200, nil, nil)
	// 2 responses + gapLimit timeouts, then abandon.
	timeouts := 0
	for _, h := range res.Hops {
		if h.Type == HopTimeout {
			timeouts++
		}
	}
	if timeouts != gapLimit {
		t.Fatalf("timeouts = %d, want gap limit %d (hops %v)", timeouts, gapLimit, res.Hops)
	}
}

func TestParallelLinkSpread(t *testing.T) {
	// Destination-hashed selection over parallel equal-cost links exposes
	// both inbound interfaces of the far router across prefixes (the
	// figure 13 ingredient).
	n := topo.Generate(topo.LargeAccessProfile(), 1)
	e := New(n, bgp.NewTable(n))
	lane := e.NewLane(n.VPs[0], 0)
	// Find a host border with two parallel backbone links.
	var twin *topo.Router
	for _, r := range n.Routers {
		if r.Owner != n.HostASN {
			continue
		}
		count := map[topo.RouterID]int{}
		for _, adj := range n.InternalNeighbors(r.ID) {
			count[adj.Peer.Router]++
		}
		for _, c := range count {
			if c >= 2 {
				twin = r
			}
		}
	}
	if twin == nil {
		t.Skip("no parallel links in this seed")
	}
	seen := map[netx.Addr]bool{}
	for _, p := range e.Tab.Prefixes() {
		res := lane.Trace(p.First()+1, nil, nil)
		for _, h := range res.Hops {
			if h.Type != HopTimeExceeded {
				continue
			}
			if ifc := n.IfaceByAddr(h.Addr); ifc != nil && ifc.Router == twin.ID {
				seen[h.Addr] = true
			}
		}
	}
	if len(seen) >= 2 {
		return // both parallel inbound interfaces observed
	}
	t.Skipf("router %v observed via %d interface(s); acceptable when few prefixes route through it", twin, len(seen))
}
