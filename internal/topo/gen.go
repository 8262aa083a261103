package topo

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"bdrmap/internal/netx"
)

// GeneratedHostASN is the AS number Generate gives the host network of
// every world: the first one it allocates.
const GeneratedHostASN ASN = 64501

// Generate builds a synthetic internetwork for the given profile and seed.
// The same (profile, seed) pair always produces the same network.
func Generate(prof Profile, seed int64) *Network {
	prof = prof.withDefaults()
	g := &genCtx{
		rng:     rand.New(rand.NewSource(seed)),
		net:     NewNetwork(),
		al:      NewAllocator(),
		prof:    prof,
		seed:    seed,
		nextASN: GeneratedHostASN - 1,
	}
	g.net.AnnotSeed = seed
	g.buildHost()
	g.buildBackbone()
	g.buildProviders()
	g.buildPeers()
	g.buildCDNs()
	g.buildCustomers()
	g.buildHypergiants()
	g.buildIXPs()
	g.buildDistant()
	g.applyMOAS()
	g.recordDelegations()
	g.placeVPs()
	g.randomizeResponderTraits()
	g.net.Alloc = g.al
	g.net.Build()
	return g.net
}

// randomizeResponderTraits assigns the measurement-relevant traits that are
// independent of a neighbor's visibility archetype: the IP-ID discipline
// (only shared-counter routers are resolvable by Ally) and whether UDP
// port-unreachable responses use a canonical source (Mercator's signal).
func (g *genCtx) randomizeResponderTraits() {
	for _, r := range g.net.Routers {
		r.Behavior.MercatorCanonical = g.rng.Float64() < 0.7
		if r.Behavior.IPID == IPIDShared {
			switch x := g.rng.Float64(); {
			case x < 0.60: // keep shared
			case x < 0.72:
				r.Behavior.IPID = IPIDPerIface
			case x < 0.88:
				r.Behavior.IPID = IPIDRandom
			default:
				r.Behavior.IPID = IPIDZero
			}
		}
		if g.rng.Float64() < 0.05 {
			r.Behavior.RateLimitPPS = 50 + g.rng.Intn(150)
		}
		// A few routers follow the RFC 1812 advice of sourcing responses
		// from the interface transmitting them (§4 challenge 2).
		if r.Owner != g.net.HostASN && g.rng.Float64() < 0.03 {
			r.Behavior.SourceEgressToProbe = true
		}
	}
}

type genCtx struct {
	rng     *rand.Rand
	net     *Network
	al      *Allocator
	prof    Profile
	seed    int64 // feeds the order-invariant per-AS annotation hashes
	nextASN ASN

	host       *AS
	hostInfra  netx.Prefix // announced infrastructure space
	hostHidden netx.Prefix // unannounced infrastructure space (RIR-only)
	hostPA     netx.Prefix // provider-aggregatable block for delegations
	regions    []Region
	hostBB     []*Router   // backbone router per region
	hostBR     [][]*Router // border routers per region
	hostACC    []*Router   // access router per region
	brCursor   []int       // round-robin cursor per region

	transitPool []ASN // transit ASes usable as "other providers"
	backbone    []*AS // the global Tier-1 clique
	cdnPools    map[ASN]netx.Prefix
	paCustomers []*AS     // customers using provider-aggregatable space
	custCores   []*Router // every customer's core router, for hypergiant fanout
}

func (g *genCtx) asn() ASN {
	g.nextASN++
	return g.nextASN
}

// pickVis draws a visibility archetype from a weighted mix.
func (g *genCtx) pickVis(mix VisMix) Visibility {
	var total float64
	for _, w := range mix {
		total += w.W
	}
	x := g.rng.Float64() * total
	for _, w := range mix {
		x -= w.W
		if x < 0 {
			return w.Vis
		}
	}
	return mix[len(mix)-1].Vis
}

// linkPlen picks /31 (70%) or /30 (30%) for an interconnection subnet.
func (g *genCtx) linkPlen() int {
	if g.rng.Float64() < 0.7 {
		return 31
	}
	return 30
}

// randRegion returns a random region index.
func (g *genCtx) randRegion() int { return g.rng.Intn(len(g.regions)) }

// ---------------------------------------------------------------------------
// Host network

func (g *genCtx) buildHost() {
	p := g.prof
	g.regions = RegionsN(p.NumRegions)

	hostASN := g.asn()
	g.host = g.net.AddAS(hostASN, p.HostTier, "org-host")
	g.net.HostASN = hostASN

	g.hostInfra = g.al.Next(14)
	g.hostHidden = g.al.Next(18)
	g.hostPA = g.al.Next(15)
	g.host.Infra = g.hostInfra
	g.host.AnnounceInfra = true
	g.host.Prefixes = append(g.host.Prefixes, g.hostInfra, g.hostPA)

	// Sibling ASNs in the host organization. A sibling owns a couple of
	// backbone routers and originates one prefix, so heuristic §5.4.1 must
	// treat sibling space as "ours".
	var sibs []*AS
	for i := 0; i < p.HostSiblings; i++ {
		s := g.net.AddAS(g.asn(), p.HostTier, "org-host")
		sp := g.al.Next(18)
		s.Prefixes = append(s.Prefixes, sp)
		s.Infra = sp
		s.AnnounceInfra = true
		g.net.SetRel(hostASN, s.ASN, RelSibling)
		sibs = append(sibs, s)
	}

	// Routers: per region one backbone, BordersPerRegion borders, and one
	// access router where VPs attach.
	g.hostBB = make([]*Router, len(g.regions))
	g.hostBR = make([][]*Router, len(g.regions))
	g.hostACC = make([]*Router, len(g.regions))
	g.brCursor = make([]int, len(g.regions))
	for i, reg := range g.regions {
		owner := hostASN
		if len(sibs) > 0 && i%5 == 4 {
			owner = sibs[(i/5)%len(sibs)].ASN
		}
		g.hostBB[i] = g.net.AddRouter(owner, fmt.Sprintf("bb1.%s", reg.Name), reg.Longitude)
		for b := 0; b < p.BordersPerRegion; b++ {
			br := g.net.AddRouter(hostASN, fmt.Sprintf("br%d.%s", b+1, reg.Name), reg.Longitude)
			g.hostBR[i] = append(g.hostBR[i], br)
		}
		g.hostACC[i] = g.net.AddRouter(hostASN, fmt.Sprintf("acc1.%s", reg.Name), reg.Longitude)
	}

	// Backbone chain west→east plus chords every four regions.
	for i := 1; i < len(g.hostBB); i++ {
		g.net.ConnectPtP(g.hostBB[i-1], g.hostBB[i], g.al.Sub(g.hostInfra, 31), LinkInternal, hostASN)
	}
	for i := 4; i < len(g.hostBB); i += 4 {
		g.net.ConnectPtP(g.hostBB[i-4], g.hostBB[i], g.al.Sub(g.hostInfra, 31), LinkInternal, hostASN)
	}
	for i := range g.regions {
		for bi, br := range g.hostBR[i] {
			g.net.ConnectPtP(g.hostBB[i], br, g.al.Sub(g.hostInfra, 31), LinkInternal, hostASN)
			// Some borders get a second, parallel backbone link and a
			// non-shared IPID counter: their two inbound interfaces cannot
			// be alias-resolved by Ally, exercising the analytical alias
			// step §5.4.7.
			if bi == 0 && i%3 == 1 {
				g.net.ConnectPtP(g.hostBB[i], br, g.al.Sub(g.hostInfra, 31), LinkInternal, hostASN)
				br.Behavior.IPID = IPIDRandom
			}
		}
		// The access link near region 0 is numbered from the unannounced
		// block (§5.4.1: delegated-but-unrouted space near the VP).
		space := g.hostInfra
		if i == 0 {
			space = g.hostHidden
		}
		g.net.ConnectPtP(g.hostBB[i], g.hostACC[i], g.al.Sub(space, 31), LinkInternal, hostASN)
	}

	// Anchor host prefixes at the first backbone router.
	g.net.SetAnchor(g.hostInfra, g.hostBB[0].ID, true)
	g.net.SetAnchor(g.hostPA, g.hostBB[0].ID, true)
	for i, s := range sibs {
		g.net.SetAnchor(s.Prefixes[0], g.hostBB[(i+1)%len(g.hostBB)].ID, true)
	}
}

// nextBorder returns the next host border router in region (round-robin).
func (g *genCtx) nextBorder(region int) *Router {
	brs := g.hostBR[region]
	r := brs[g.brCursor[region]%len(brs)]
	g.brCursor[region]++
	return r
}

// ---------------------------------------------------------------------------
// Neighbor construction

// neighborSpec carries everything needed to wire one neighbor of the host.
type neighborSpec struct {
	as        *AS
	rel       Rel // neighbor's relationship to host: RelCustomer = buys from host
	vis       Visibility
	regions   []int // host regions to interconnect at
	hidden    bool  // host marks routes from this neighbor no-export (invisible in public BGP)
	policy    AnnouncePolicy
	nPrefixes int // total announced prefixes (CDNs announce many)
}

// newEdgeAS creates an AS with one announced prefix of the given length.
func (g *genCtx) newEdgeAS(tier Tier, plen int) *AS {
	asn := g.asn()
	a := g.net.AddAS(asn, tier, fmt.Sprintf("org-%d", asn))
	p := g.al.Next(plen)
	a.Prefixes = append(a.Prefixes, p)
	a.Infra = p
	a.AnnounceInfra = true
	return a
}

// buildNeighbor wires a neighbor AS to the host per its visibility
// archetype and returns the interdomain links created. It returns the
// neighbor's core router so further customers can attach beneath it.
func (g *genCtx) buildNeighbor(sp neighborSpec) (links []*Link, core *Router) {
	n := sp.as
	host := g.net.HostASN
	g.net.SetRel(n.ASN, host, sp.rel)
	if sp.hidden {
		if g.net.HiddenNeighbors == nil {
			g.net.HiddenNeighbors = make(map[ASN]bool)
		}
		g.net.HiddenNeighbors[n.ASN] = true
	}

	lon := func(region int) float64 { return g.regions[region%len(g.regions)].Longitude }
	home := sp.regions[0]

	core = g.net.AddRouter(n.ASN, "core1", lon(home))
	agg := g.net.AddRouter(n.ASN, "agg1", lon(home))

	// Which space numbers the interconnection subnets?
	hostSupplies := false
	switch sp.vis {
	case VisFirewall, VisOneHop, VisUnrouted, VisSilent, VisEchoOnly,
		VisMixedAdj, VisMultiAdj, VisSiblingUpstream:
		hostSupplies = true
	case VisOnenet:
		switch sp.rel {
		case RelProvider:
			hostSupplies = false
		case RelCustomer:
			hostSupplies = true
		default:
			hostSupplies = g.rng.Float64() < 0.5
		}
	case VisFirewallOwnSpace, VisThirdParty:
		hostSupplies = false
	}

	// Third-party archetype: the subnet comes from the neighbor's *other*
	// provider C, to which the neighbor is genuinely multihomed.
	var thirdParty *AS
	if sp.vis == VisThirdParty && len(g.transitPool) > 0 {
		thirdParty = g.net.ASes[g.transitPool[g.rng.Intn(len(g.transitPool))]]
		if n.RelTo(thirdParty.ASN) == RelNone {
			g.net.SetRel(n.ASN, thirdParty.ASN, RelCustomer)
			g.attachUnder(thirdParty, core, n.ASN)
		}
	}

	linkSubnet := func() (netx.Prefix, ASN) {
		plen := g.linkPlen()
		switch {
		case thirdParty != nil:
			return g.al.Sub(thirdParty.Infra, plen), thirdParty.ASN
		case hostSupplies:
			return g.al.Sub(g.hostInfra, plen), host
		default:
			return g.al.Sub(n.Infra, plen), n.ASN
		}
	}

	var borders []*Router
	for i, region := range sp.regions {
		br := g.nextBorder(region)
		b := g.net.AddRouter(n.ASN, fmt.Sprintf("bdr%d", i+1), lon(region))
		subnet, owner := linkSubnet()
		l := g.net.ConnectPtP(br, b, subnet, LinkInterdomain, owner)
		links = append(links, l)
		borders = append(borders, b)
	}

	// Interior space: most archetypes use the announced prefix; the
	// unrouted archetype numbers its interior from unannounced space.
	interiorSpace := n.Infra
	if sp.vis == VisUnrouted {
		hidden := g.al.Next(22)
		interiorSpace = hidden
		g.net.Delegations = append(g.net.Delegations, DelegationRecord{OrgID: n.Org, Prefix: hidden})
	}

	// Default interior wiring border(s)→core→agg, except for the
	// sibling-upstream archetype whose interior uses its customer's space.
	if sp.vis != VisSiblingUpstream {
		for _, b := range borders {
			g.net.ConnectPtP(b, core, g.al.Sub(interiorSpace, 31), LinkInternal, n.ASN)
		}
		g.net.ConnectPtP(core, agg, g.al.Sub(interiorSpace, 31), LinkInternal, n.ASN)
	}

	// Default anchoring: traffic to the announced prefix terminates at agg.
	g.net.SetAnchor(n.Prefixes[0], agg.ID, g.rng.Float64() < 0.7)

	switch sp.vis {
	case VisFirewall, VisFirewallOwnSpace, VisThirdParty:
		for _, b := range borders {
			b.Behavior.FirewallEdge = true
		}
	case VisOneHop:
		core.Behavior.FirewallEdge = true
	case VisOnenet:
		agg.Behavior.FirewallEdge = true
	case VisUnrouted:
		// Fully responsive interior on unannounced space; destinations
		// reply so §5.4.3 sees a routed address after the border.
		g.net.SetAnchor(n.Prefixes[0], agg.ID, true)
	case VisSilent:
		for _, r := range append([]*Router{core, agg}, borders...) {
			r.Behavior.NoTTLExpired = true
			r.Behavior.NoEchoReply = true
			r.Behavior.NoUDPUnreach = true
		}
		for _, b := range borders {
			b.Behavior.FirewallEdge = true
		}
		g.net.SetAnchor(n.Prefixes[0], agg.ID, false)
	case VisEchoOnly:
		for _, r := range append([]*Router{core, agg}, borders...) {
			r.Behavior.NoTTLExpired = true
		}
		g.net.SetAnchor(n.Prefixes[0], agg.ID, true)
	case VisMixedAdj:
		// The border leads to two interior routers (each carrying one of
		// two announced prefixes) and to a direct customer whose link is
		// numbered from the customer's space: adjacent interfaces span
		// several ASes, so only the counting step §5.4.6/6.1 decides.
		core.Behavior.FirewallEdge = true
		core2 := g.net.AddRouter(n.ASN, "core2", lon(home))
		core2.Behavior.FirewallEdge = true
		g.net.ConnectPtP(borders[0], core2, g.al.Sub(interiorSpace, 31), LinkInternal, n.ASN)
		p2 := g.al.Next(22)
		n.Prefixes = append(n.Prefixes, p2)
		g.net.SetAnchor(n.Prefixes[0], core.ID, false)
		g.net.SetAnchor(p2, core2.ID, false)
		d := g.newEdgeAS(TierStub, 22)
		g.net.SetRel(d.ASN, n.ASN, RelCustomer)
		db := g.net.AddRouter(d.ASN, "bdr1", lon(home))
		db.Behavior.FirewallEdge = true
		g.net.ConnectPtP(borders[0], db, g.al.Sub(d.Infra, g.linkPlen()), LinkInterdomain, d.ASN)
		g.net.SetAnchor(d.Prefixes[0], db.ID, false)
	case VisMultiAdj:
		// A second host link whose far router is joined to the first
		// border by an internal link numbered from host PA space
		// (§5.4.1 step 1.1: adjacent multihomed routers).
		br := g.nextBorder(home)
		b2 := g.net.AddRouter(n.ASN, "bdr2", lon(home))
		l2 := g.net.ConnectPtP(br, b2, g.al.Sub(g.hostInfra, g.linkPlen()), LinkInterdomain, host)
		links = append(links, l2)
		g.net.ConnectPtP(borders[0], b2, g.al.Sub(g.hostPA, 31), LinkInternal, host)
		p2 := g.al.Next(22)
		n.Prefixes = append(n.Prefixes, p2)
		core2 := g.net.AddRouter(n.ASN, "core2", lon(home))
		core2.Behavior.FirewallEdge = true
		g.net.ConnectPtP(b2, core2, g.al.Sub(n.Infra, 31), LinkInternal, n.ASN)
		g.net.SetAnchor(p2, core2.ID, false)
		core.Behavior.FirewallEdge = true
		g.net.SetAnchor(n.Prefixes[0], core.ID, false)
		// Pin both prefixes to the first link so traffic to p2 transits
		// border1→border2 (two consecutive host-space interfaces).
		g.net.PinPrefix(n.Prefixes[0], []*Link{links[0]})
		g.net.PinPrefix(p2, []*Link{links[0]})
	case VisSiblingUpstream:
		// The neighbor's interior is numbered from its customer A's space
		// (sibling organizations sharing address space): §5.4.5 step 5.4.
		a := g.newEdgeAS(TierStub, 22)
		a.Org = n.Org
		g.net.SetRel(a.ASN, n.ASN, RelCustomer)
		core.Behavior.FirewallEdge = true
		g.net.ConnectPtP(borders[0], core, g.al.Sub(a.Infra, 31), LinkInternal, n.ASN)
		ar := g.net.AddRouter(a.ASN, "bdr1", lon(home))
		ar.Behavior.FirewallEdge = true
		g.net.ConnectPtP(core, ar, g.al.Sub(a.Infra, g.linkPlen()), LinkInterdomain, a.ASN)
		g.net.SetAnchor(a.Prefixes[0], ar.ID, false)
		g.net.SetAnchor(n.Prefixes[0], core.ID, false)
	}

	// Additional CDN-style prefixes with announcement policies.
	for len(n.Prefixes) < sp.nPrefixes {
		p := g.al.Sub(g.cdnPool(n), 24)
		n.Prefixes = append(n.Prefixes, p)
		g.net.SetAnchor(p, agg.ID, true)
	}
	// Most networks announce more than one prefix; the extra blocks give
	// the per-target-AS stop set (§5.3) repeated paths to suppress.
	if sp.nPrefixes == 0 {
		for i := g.rng.Intn(3); i > 0; i-- {
			p := g.al.Next(22)
			n.Prefixes = append(n.Prefixes, p)
			g.net.SetAnchor(p, agg.ID, g.rng.Float64() < 0.5)
		}
	}
	g.applyPolicy(n, sp.policy, links)
	return links, core
}

// cdnPool lazily allocates a /16 pool for a CDN's many /24s.
func (g *genCtx) cdnPool(n *AS) netx.Prefix {
	if g.cdnPools == nil {
		g.cdnPools = make(map[ASN]netx.Prefix)
	}
	p, ok := g.cdnPools[n.ASN]
	if !ok {
		p = g.al.Next(16)
		g.cdnPools[n.ASN] = p
	}
	return p
}

// applyPolicy pins prefixes to links per the announcement policy.
func (g *genCtx) applyPolicy(n *AS, pol AnnouncePolicy, links []*Link) {
	n.Policy = pol
	if len(links) == 0 {
		return
	}
	switch pol {
	case AnnouncePinned:
		for i, p := range n.Prefixes {
			g.net.PinPrefix(p, []*Link{links[i%len(links)]})
		}
	case AnnounceCoastal:
		west, east := links[:(len(links)+1)/2], links[len(links)/2:]
		for i, p := range n.Prefixes {
			g.net.PinPrefix(p, []*Link{west[i%len(west)], east[i%len(east)]})
		}
	}
}

// attachUnder wires AS sub (customer) beneath provider t: a new border
// router of owner subASN is connected to one of t's routers with a link
// numbered from t's space. Returns the new router.
func (g *genCtx) attachUnder(t *AS, subRouter *Router, subASN ASN) *Router {
	var tr *Router
	if len(t.Routers) > 0 {
		tr = t.Routers[len(t.Routers)-1]
	} else {
		tr = g.net.AddRouter(t.ASN, "core1", g.regions[0].Longitude)
	}
	g.net.ConnectPtP(tr, subRouter, g.al.Sub(t.Infra, g.linkPlen()), LinkInterdomain, t.ASN)
	g.net.SetRel(subASN, t.ASN, RelCustomer)
	return subRouter
}

// ---------------------------------------------------------------------------
// Neighbor classes

// buildBackbone creates the global Tier-1 clique that anchors the synthetic
// Internet's hierarchy. Without it, relationship inference cannot tell a
// well-connected access network from a true transit-free network (exactly
// the failure mode the AS-Rank clique inference exists to avoid).
func (g *genCtx) buildBackbone() {
	const nT1 = 6
	for i := 0; i < nT1; i++ {
		t1 := g.newEdgeAS(TierTier1, 14)
		lon := g.regions[(i*3)%len(g.regions)].Longitude
		g.net.AddRouter(t1.ASN, "core1", lon)
		g.net.AddRouter(t1.ASN, "core2", lon)
		g.backbone = append(g.backbone, t1)
		g.transitPool = append(g.transitPool, t1.ASN)
	}
	for i := 0; i < len(g.backbone); i++ {
		for j := i + 1; j < len(g.backbone); j++ {
			a, b := g.backbone[i], g.backbone[j]
			g.net.SetRel(a.ASN, b.ASN, RelPeer)
			g.net.ConnectPtP(a.Routers[0], b.Routers[0],
				g.al.Sub(a.Infra, 31), LinkInterdomain, a.ASN)
		}
	}
	for _, t1 := range g.backbone {
		g.net.SetAnchor(t1.Prefixes[0], t1.Routers[1].ID, true)
	}
	// A Tier-1 host is itself a clique member: peer it with the backbone
	// through regular neighbor machinery so the links are measurable.
	if g.prof.HostTier == TierTier1 {
		for _, t1 := range g.backbone {
			_, _ = g.buildNeighbor(neighborSpec{
				as: t1, rel: RelPeer, vis: VisOnenet,
				regions: []int{g.randRegion(), g.randRegion()},
			})
		}
	}
}

// backboneT1 returns a backbone member round-robin by i.
func (g *genCtx) backboneT1(i int) *AS { return g.backbone[i%len(g.backbone)] }

func (g *genCtx) buildProviders() {
	for i := 0; i < g.prof.NumProviders; i++ {
		p := g.newEdgeAS(TierTransit, 15)
		vis := g.pickVis(g.prof.ProvVis)
		regionA, regionB := g.randRegion(), g.randRegion()
		_, core := g.buildNeighbor(neighborSpec{
			as: p, rel: RelProvider, vis: vis,
			regions: []int{regionA, regionB},
		})
		// Providers buy transit from two backbone Tier-1s.
		g.attachUnder(g.backboneT1(2*i), core, p.ASN)
		g.attachUnder(g.backboneT1(2*i+1), core, p.ASN)
		g.transitPool = append(g.transitPool, p.ASN)
	}
}

func (g *genCtx) buildPeers() {
	for i := 0; i < g.prof.NumPeers; i++ {
		nLinks := 1 + g.rng.Intn(3)
		if i < len(g.prof.BigPeerLinkCounts) {
			nLinks = g.prof.BigPeerLinkCounts[i]
		}
		tier := TierTransit
		vis := g.pickVis(g.prof.PeerVis)
		// Big peers are large responsive transit networks.
		if i < len(g.prof.BigPeerLinkCounts) {
			vis = VisOnenet
			tier = TierTier1
		}
		p := g.newEdgeAS(tier, 16)
		if i < len(g.prof.BigPeerLinkCounts) {
			g.net.Tags[fmt.Sprintf("bigpeer%d", i)] = p.ASN
		}
		regions := g.spreadRegions(nLinks)
		_, core := g.buildNeighbor(neighborSpec{
			as: p, rel: RelPeer, vis: vis, regions: regions,
		})
		if tier == TierTier1 {
			// Big peers join the global clique.
			for _, t1 := range g.backbone {
				g.net.SetRel(p.ASN, t1.ASN, RelPeer)
				g.net.ConnectPtP(t1.Routers[0], core,
					g.al.Sub(t1.Infra, 31), LinkInterdomain, t1.ASN)
			}
			g.transitPool = append(g.transitPool, p.ASN)
		} else {
			// Ordinary peers buy transit from a backbone Tier-1.
			g.attachUnder(g.backboneT1(i), core, p.ASN)
			if g.rng.Float64() < 0.3 {
				g.transitPool = append(g.transitPool, p.ASN)
			}
		}
	}
}

func (g *genCtx) buildCDNs() {
	for i, spec := range g.prof.CDNs {
		c := g.newEdgeAS(TierCDN, 18)
		g.net.Tags[spec.Name] = c.ASN
		regions := g.spreadRegions(spec.Links)
		if spec.Policy == AnnounceCoastal {
			// Coastal interconnection (the paper's Google case): half the
			// links on the west coast, half on the east.
			west, east := 0, len(g.regions)-1
			for j := range regions {
				if j < len(regions)/2 {
					regions[j] = west
				} else {
					regions[j] = east
				}
			}
		}
		_, core := g.buildNeighbor(neighborSpec{
			as: c, rel: RelPeer, vis: spec.Visibility,
			regions: regions, policy: spec.Policy, nPrefixes: spec.Prefixes,
		})
		// CDNs are multihomed to a backbone Tier-1 as well (their prefixes
		// must be reachable without the host's peering).
		g.attachUnder(g.backboneT1(i), core, c.ASN)
	}
}

// spreadRegions distributes n links across regions as evenly as possible,
// west to east, wrapping as needed.
func (g *genCtx) spreadRegions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % len(g.regions)
	}
	return out
}

func (g *genCtx) buildCustomers() {
	for i := 0; i < g.prof.NumCustomers; i++ {
		c := g.newEdgeAS(TierStub, 20)
		vis := g.pickVis(g.prof.CustVis)
		regions := []int{g.randRegion()}
		// Silent customers are usually multihomed to the host across
		// regions; §5.4.8 then cannot place them, producing the BGP
		// coverage gap of Table 1 (92.2%-96.8% in the paper).
		if vis == VisSilent && g.rng.Float64() < 0.7 && len(g.regions) > 1 {
			r2 := (regions[0] + 1 + g.rng.Intn(len(g.regions)-1)) % len(g.regions)
			regions = append(regions, r2)
		}
		_, core := g.buildNeighbor(neighborSpec{
			as: c, rel: RelCustomer, vis: vis, regions: regions,
		})
		g.custCores = append(g.custCores, core)
		// Multihomed silent customers with several prefixes spread their
		// (unobservable) traffic across exits, so §5.4.8 sees different
		// final routers and cannot place them — the paper's coverage gap.
		if vis == VisSilent && len(regions) > 1 && len(c.Prefixes) < 2 {
			p := g.al.Next(22)
			c.Prefixes = append(c.Prefixes, p)
			g.net.SetAnchor(p, core.ID, false)
		}
		// Transit customers have their own customers beneath them.
		if g.rng.Float64() < g.prof.CustTransitFrac && g.prof.CustMaxChildren > 0 {
			c.Tier = TierTransit
			nkids := 1 + g.rng.Intn(g.prof.CustMaxChildren)
			for k := 0; k < nkids; k++ {
				kid := g.newEdgeAS(TierStub, 22)
				kb := g.net.AddRouter(kid.ASN, "bdr1", core.Longitude)
				kb.Behavior.FirewallEdge = true
				g.net.ConnectPtP(core, kb, g.al.Sub(c.Infra, g.linkPlen()), LinkInterdomain, c.ASN)
				g.net.SetRel(kid.ASN, c.ASN, RelCustomer)
				g.net.SetAnchor(kid.Prefixes[0], kb.ID, g.rng.Float64() < 0.5)
			}
		}
		// A few customers use provider-aggregatable space from the host.
		if len(g.paCustomers) < g.prof.PADelegations {
			pa := g.al.Sub(g.hostPA, 22)
			c.Prefixes = append(c.Prefixes, pa)
			g.net.SetAnchor(pa, core.ID, false)
			g.net.Delegations = append(g.net.Delegations, DelegationRecord{OrgID: "org-host", Prefix: pa})
			g.paCustomers = append(g.paCustomers, c)
		}
	}
}

// buildHypergiants wires content hypergiants: each peers with the host like
// a large CDN and additionally peers *directly* with up to AccessFanout of
// the host's customers (hierarchy flattening). The shortcut links are
// valley-free — a customer never exports a peer route upward — so the
// host's ground truth is untouched while the hypergiant's neighbor degree
// explodes, stressing §5.4.5/§5.4.6 exactly the way PARI predicts.
func (g *genCtx) buildHypergiants() {
	for i, spec := range g.prof.Hypergiants {
		h := g.newEdgeAS(TierCDN, 18)
		g.net.Tags[spec.Name] = h.ASN
		regions := g.spreadRegions(spec.Links)
		_, core := g.buildNeighbor(neighborSpec{
			as: h, rel: RelPeer, vis: VisOnenet,
			regions: regions, policy: AnnounceEverywhere, nPrefixes: spec.Prefixes,
		})
		// Reachable without the host's peering, like every content network.
		g.attachUnder(g.backboneT1(i), core, h.ASN)
		fan := spec.AccessFanout
		if fan > len(g.custCores) {
			fan = len(g.custCores)
		}
		for k := 0; k < fan; k++ {
			cust := g.custCores[k]
			if h.RelTo(cust.Owner) != RelNone {
				continue
			}
			g.net.SetRel(cust.Owner, h.ASN, RelPeer)
			g.net.ConnectPtP(core, cust, g.al.Sub(h.Infra, g.linkPlen()), LinkInterdomain, h.ASN)
		}
	}
}

func (g *genCtx) buildIXPs() {
	for i := 0; i < g.prof.NumIXPs; i++ {
		op := g.newEdgeAS(TierIXP, 20)
		lan := g.al.Sub(op.Infra, 22)
		region := g.randRegion()
		ixp := &IXP{
			Name:         fmt.Sprintf("ixp%d", i+1),
			OperatorASN:  op.ASN,
			LAN:          lan,
			AnnouncesLAN: g.rng.Float64() < 0.5,
			Longitude:    g.regions[region].Longitude,
		}
		ixpIdx := len(g.net.IXPs)
		g.net.IXPs = append(g.net.IXPs, ixp)

		lanLink := g.net.AddLink(LinkIXPLAN, lan, op.ASN)
		lanCursor := 1 // .0 reserved

		// The IXP operator's management router sits on the LAN; the
		// operator may or may not originate its space in BGP (§4/6).
		opr := g.net.AddRouter(op.ASN, "mgmt", ixp.Longitude)
		opIf := opr.AddIface(lan.First()+netx.Addr(lanCursor), lanLink)
		lanCursor++
		g.net.RegisterIface(opIf)
		if ixp.AnnouncesLAN {
			g.net.SetAnchor(op.Prefixes[0], opr.ID, false)
			// The operator needs transit for its announcement to exist.
			g.attachUnder(g.backboneT1(i), opr, op.ASN)
		} else {
			op.Prefixes = op.Prefixes[:0]
			op.AnnounceInfra = false
		}

		// The host's border router at this IXP.
		hostBR := g.nextBorder(region)
		hostIf := hostBR.AddIface(lan.First()+netx.Addr(lanCursor), lanLink)
		lanCursor++
		g.net.RegisterIface(hostIf)
		ixp.Members = append(ixp.Members, g.net.HostASN)

		// IXP members: route-server sessions are hidden peers of the host;
		// bilateral sessions (IXPBilateralFrac) stay BGP-visible. Remote
		// members (RemotePeerFrac) sit in a distant metro behind a layer-2
		// circuit — placement and circuit delay come from the per-AS hash
		// stream so they cannot disturb the sequential rng.
		for m := 0; m < g.prof.IXPPeersPerIXP; m++ {
			vis := g.pickVis(g.prof.IXPVis)
			pASN := g.asn()
			p := g.net.AddAS(pASN, TierStub, fmt.Sprintf("org-%d", pASN))
			pp := g.al.Next(21)
			p.Prefixes = append(p.Prefixes, pp)
			p.Infra = pp
			p.AnnounceInfra = true
			memberLon := ixp.Longitude
			var circuit time.Duration
			if g.prof.RemotePeerFrac > 0 && g.rng.Float64() < g.prof.RemotePeerFrac {
				memberLon, circuit = remoteAttachment(g.seed, pASN, ixp.Longitude)
				ixp.Remote = append(ixp.Remote, pASN)
			}
			border := g.net.AddRouter(pASN, "ixp-bdr", memberLon)
			memIf := border.AddIface(lan.First()+netx.Addr(lanCursor), lanLink)
			memIf.AttachDelay = circuit
			lanCursor++
			g.net.RegisterIface(memIf)
			ixp.Members = append(ixp.Members, pASN)

			g.net.SetRel(p.ASN, g.net.HostASN, RelPeer)
			if g.prof.IXPBilateralFrac > 0 && g.rng.Float64() < g.prof.IXPBilateralFrac {
				ixp.Bilateral = append(ixp.Bilateral, pASN)
			} else {
				if g.net.HiddenNeighbors == nil {
					g.net.HiddenNeighbors = make(map[ASN]bool)
				}
				g.net.HiddenNeighbors[p.ASN] = true
			}
			g.net.AddIXPSession(ixpIdx, g.net.HostASN, hostBR.ID, p.ASN, border.ID)

			// Each member is also a customer of a transit (so its prefix
			// is in the public BGP view even though the peering is not).
			interior := pp
			if vis == VisUnrouted {
				interior = g.al.Next(23)
				g.net.Delegations = append(g.net.Delegations, DelegationRecord{OrgID: p.Org, Prefix: interior})
			}
			core := g.net.AddRouter(pASN, "core1", memberLon)
			agg := g.net.AddRouter(pASN, "agg1", memberLon)
			g.net.ConnectPtP(border, core, g.al.Sub(interior, 31), LinkInternal, pASN)
			g.net.ConnectPtP(core, agg, g.al.Sub(interior, 31), LinkInternal, pASN)
			if len(g.transitPool) > 0 {
				t := g.net.ASes[g.transitPool[g.rng.Intn(len(g.transitPool))]]
				g.attachUnder(t, core, pASN)
			}
			g.net.SetAnchor(pp, agg.ID, g.rng.Float64() < 0.7)

			// Archetype behaviors on the member side, mirroring
			// buildNeighbor: the amount of interior a trace entering via
			// the IXP LAN can observe.
			switch vis {
			case VisFirewall, VisThirdParty:
				border.Behavior.FirewallEdge = true
				g.net.SetAnchor(pp, agg.ID, false)
			case VisOneHop:
				core.Behavior.FirewallEdge = true
				g.net.SetAnchor(pp, agg.ID, false)
			case VisOnenet:
				agg.Behavior.FirewallEdge = true
			case VisUnrouted:
				g.net.SetAnchor(pp, agg.ID, true)
			case VisEchoOnly:
				for _, r := range []*Router{border, core, agg} {
					r.Behavior.NoTTLExpired = true
				}
				g.net.SetAnchor(pp, agg.ID, true)
			}
		}
	}
}

// buildDistant hangs content ASes beneath providers and big peers so that
// traceroutes toward them exercise provider/peer border routers.
func (g *genCtx) buildDistant() {
	var transits []*AS
	for _, asn := range g.transitPool {
		transits = append(transits, g.net.ASes[asn])
	}
	if len(transits) == 0 {
		return
	}
	for _, t := range transits {
		for i := 0; i < g.prof.DistantPerTransit; i++ {
			d := g.newEdgeAS(TierStub, 22)
			dr := g.net.AddRouter(d.ASN, "bdr1", g.regions[g.randRegion()].Longitude)
			dr.Behavior.FirewallEdge = g.rng.Float64() < 0.6
			g.attachUnder(t, dr, d.ASN)
			g.net.SetAnchor(d.Prefixes[0], dr.ID, g.rng.Float64() < 0.6)
			for j := g.rng.Intn(3); j > 0; j-- {
				p := g.al.Next(23)
				d.Prefixes = append(d.Prefixes, p)
				g.net.SetAnchor(p, dr.ID, g.rng.Float64() < 0.5)
			}
		}
	}
}

// applyMOAS makes some prefixes multi-origin (§4 challenge 7): a second AS
// co-originates an existing AS's prefix.
func (g *genCtx) applyMOAS() {
	asns := g.net.ASNs()
	pairs := 0
	for i := 0; i+1 < len(asns) && pairs < g.prof.MOASPairs; i += 7 {
		a := g.net.ASes[asns[i]]
		b := g.net.ASes[asns[i+1]]
		if a.ASN == g.net.HostASN || b.ASN == g.net.HostASN || len(a.Prefixes) == 0 {
			continue
		}
		p := a.Prefixes[0]
		b.Prefixes = append(b.Prefixes, p)
		g.net.MultiOrigin[p] = []ASN{a.ASN, b.ASN}
		pairs++
	}
}

// recordDelegations emits an RIR-style record for every AS's address space.
func (g *genCtx) recordDelegations() {
	asns := g.net.ASNs()
	var blocks []netx.Prefix
	total := 1 // the host's unannounced block
	for _, asn := range asns {
		blocks = delegatedBlocks(g.net.ASes[asn], blocks[:0])
		total += len(blocks)
	}
	g.net.Delegations = slices.Grow(g.net.Delegations, total)
	for _, asn := range asns {
		a := g.net.ASes[asn]
		blocks = delegatedBlocks(a, blocks[:0])
		for _, p := range blocks {
			g.net.Delegations = append(g.net.Delegations, DelegationRecord{OrgID: a.Org, Prefix: p})
		}
	}
	g.net.Delegations = append(g.net.Delegations, DelegationRecord{OrgID: "org-host", Prefix: g.hostHidden})
}

// delegatedBlocks appends to dst the blocks delegated to a: each prefix it
// announces, once, then its infrastructure block unless it announces that.
func delegatedBlocks(a *AS, dst []netx.Prefix) []netx.Prefix {
	for i, p := range a.Prefixes {
		if !slices.Contains(a.Prefixes[:i], p) {
			dst = append(dst, p)
		}
	}
	if a.Infra.IsValid() && a.Infra.Len > 0 && !slices.Contains(a.Prefixes, a.Infra) {
		dst = append(dst, a.Infra)
	}
	return dst
}

// vpRegion returns the region index for VP i under the profile's placement
// policy. The historical default spreads round-robin across all regions;
// coastal placements cycle through one half of the west→east footprint.
func (g *genCtx) vpRegion(i int) int {
	n := len(g.regions)
	half := (n + 1) / 2
	switch g.prof.VPPlacement {
	case VPWestCoast:
		return i % half
	case VPEastCoast:
		return n - 1 - i%half
	case VPSingleRegion:
		return 0
	default:
		return i % n
	}
}

// placeVPs attaches VPs to access routers per the VP placement policy.
func (g *genCtx) placeVPs() {
	for i := 0; i < g.prof.NumVPs; i++ {
		region := g.vpRegion(i)
		acc := g.hostACC[region]
		// The VP host hangs off the access router on a /31 from host space.
		sub := g.al.Sub(g.hostInfra, 31)
		vpAddr := sub.First() + 1
		l := g.net.AddLink(LinkInternal, sub, g.net.HostASN)
		accIf := acc.AddIface(sub.First(), l)
		g.net.RegisterIface(accIf)
		vp := &VP{
			Name:   fmt.Sprintf("vp%02d.%s", i+1, g.regions[region].Name),
			Host:   g.net.HostASN,
			Router: acc.ID,
			Addr:   vpAddr,
		}
		g.net.VPs = append(g.net.VPs, vp)
	}
}
