package core

import (
	"sync"

	"bdrmap/internal/alias"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// idle is the free list of arenas no inference is using. It is a plain
// slice rather than a sync.Pool, which the garbage collector empties: an
// idle arena is the warm slabs the next inference would otherwise rebuild.
var idle struct {
	sync.Mutex
	arenas []*arena
}

// Infer runs the full bdrmap algorithm over one vantage point's dataset.
// It is safe for concurrent use: each call infers on an arena of its own,
// taken from the free list and returned to it emptied.
func Infer(in Input) *Result {
	var ar *arena
	idle.Lock()
	if n := len(idle.arenas); n > 0 {
		ar = idle.arenas[n-1]
		idle.arenas = idle.arenas[:n-1]
	}
	idle.Unlock()
	if ar == nil {
		ar = &arena{}
	}
	res := infer(in, ar)
	idle.Lock()
	idle.arenas = append(idle.arenas, ar)
	idle.Unlock()
	return res
}

// infer is Infer on the arena ar, which it leaves empty.
func infer(in Input, ar *arena) *Result {
	span := in.Obs.StartStage("core.infer")
	defer span.End()
	// The inference span spends no simulated measurement time (SimNS 0);
	// it exists so the timeline shows where each vp's probing ends and
	// attribution begins, with the result sizes as attributes.
	sp := in.Spans.Begin(in.SpanParent, "stage", "infer")
	defer sp.End()
	// Reset as infer returns, not as it starts: an arena between
	// inferences is empty, pinning nothing of this call's world.
	defer ar.reset()
	g := buildGraph(in, ar)
	g.passHost()
	g.sweep()
	g.passAnalyticalAliases()
	res := g.buildResult()
	g.passSilent(res)
	in.Obs.Add("core.routers", int64(len(res.Routers)))
	in.Obs.Add("core.links", int64(len(res.Links)))
	sp.SetAttr("routers", len(res.Routers))
	sp.SetAttr("links", len(res.Links))
	return res
}

// anonymousAddr reports whether a node's addresses say nothing about its
// owner: host-supplied interconnection space or IXP LAN space.
func (n *node) anonymousAddr() bool {
	return n.class == classHost || n.class == classIXP
}

// sweep runs §5.4.2–§5.4.6 over the routers in order of their distance
// from the VP (§5.4; ties by creation id). A router already claimed — by
// §5.4.1, or by step 5.1 of a router visited earlier — is skipped.
func (g *graph) sweep() {
	for _, id := range g.order {
		if !g.nodes[id].done {
			g.inferNeighbor(id)
		}
	}
}

// ---------------------------------------------------------------------------
// §5.4.1: routers operated by the hosting network

func (g *graph) passHost() {
	host := g.in.HostASN
	for _, id := range g.order {
		n := &g.nodes[id]
		if n.class != classHost {
			continue
		}
		// Step 1.2 precondition: a subsequent interface also originated by
		// the hosting network.
		hostSucc := g.hostSuccessor(id)
		if hostSucc < 0 {
			continue
		}
		// Step 1.1 exception: the neighbor may be multihomed to the host
		// with adjacent routers numbered from host space. This reading
		// only applies when both routers exclusively carry traffic toward
		// A (a host border carries many destinations and never matches).
		extAdj := g.succExternalOrigins(id)
		if len(extAdj) == 1 && !n.isVP {
			a := extAdj[0].as
			hs := &g.nodes[hostSucc]
			onlyA := len(n.dests) == 1 && n.dests[0].as == a &&
				len(hs.dests) == 1 && hs.dests[0].as == a
			if onlyA && g.in.Rel.Rel(host, a) != topo.RelNone && g.multihomedException(id, hostSucc, a) {
				ev := obs.AS(obs.KeyOnlyDest, a)
				g.claim(id, a, HeurMultihomed, ev)
				if !hs.done {
					g.claim(hostSucc, a, HeurMultihomed, ev)
				}
				continue
			}
		}
		g.claim(id, host, HeurHostNetwork,
			obs.IP(obs.KeyHostSuccessor, g.nodes[hostSucc].addrs[0]))
	}

	// Extension step (beyond the paper's 1.1/1.2, needed for hosts with
	// no customers to supply interconnection space): a host-space router
	// whose successors fan out into several *mutually unrelated* external
	// ASes must be the host's own border. A neighbor's router only carries
	// traffic into that neighbor's cone, so its adjacent external ASes
	// always include a plausible common transit; an egress fan-out point
	// of the host does not.
	for _, id := range g.order {
		n := &g.nodes[id]
		if n.done || n.class != classHost {
			continue
		}
		extAdj := g.succExternalOrigins(id)
		if len(extAdj) >= 2 && !g.hasPlausibleTransit(extAdj) {
			g.claim(id, host, HeurHostNetwork,
				obs.Int(obs.KeyEgressFanout, len(extAdj)))
		}
	}
}

// hasPlausibleTransit reports whether some adjacent AS could be providing
// transit to every other adjacent AS (the fig. 9 configuration).
func (g *graph) hasPlausibleTransit(extAdj []asCount) bool {
	for _, ae := range extAdj {
		ok := true
		for _, be := range extAdj {
			if be.as == ae.as {
				continue
			}
			if g.in.Rel.Rel(ae.as, be.as) != topo.RelCustomer { // b is not a's customer
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// hostSuccessor returns a successor reached over a host-originated
// address, smallest node id first, or -1.
func (g *graph) hostSuccessor(id int32) int32 {
	for _, e := range g.nodes[id].succ {
		for _, p := range g.ar.edges[e].pairs {
			if g.originIsHost(p.to) {
				return g.ar.edges[e].to
			}
		}
	}
	return -1
}

// multihomedException applies §5.4.1's guard for step 1.1: if an owner we
// would infer for a router subsequent to n is a customer of the host but
// not a known neighbor of A, the multihomed reading is wrong and the host
// operates n. Returns true when step 1.1 should fire.
func (g *graph) multihomedException(n, v int32, a topo.ASN) bool {
	check := func(wid int32) bool {
		w := &g.nodes[wid]
		if w.class != classExternal || w.extAS == 0 || w.extAS == a {
			return true
		}
		o := w.extAS
		if g.in.Rel.Rel(g.in.HostASN, o) == topo.RelCustomer && !g.in.View.HasLink(o, a) {
			return false // a host customer unrelated to A: n is the host's
		}
		return true
	}
	for _, e := range g.nodes[n].succ {
		if !check(g.ar.edges[e].to) {
			return false
		}
	}
	for _, e := range g.nodes[v].succ {
		if !check(g.ar.edges[e].to) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// §5.4.2–§5.4.6: neighbor routers, in the paper's order

func (g *graph) inferNeighbor(id int32) {
	host := g.in.HostASN
	n := &g.nodes[id]
	extAdj := g.succExternalOrigins(id)

	// §5.4.2 firewall: the last responding router toward a destination,
	// numbered from space that says nothing about its owner, with no
	// adjacent interfaces at all.
	if n.anonymousAddr() && len(n.succ) == 0 && len(n.lastFor) > 0 {
		if len(n.dests) == 1 {
			d := n.dests[0].as
			g.claim(id, d, HeurFirewall, obs.AS(obs.KeyLastHopToward, d))
			return
		} else if na := g.nextas(id); na != 0 {
			g.claim(id, na, HeurFirewall, obs.AS(obs.KeyCommonProviderOfDests, na))
			return
		}
		g.decline(HeurFirewall)
	}

	// §5.4.3 unrouted interior addressing.
	if n.class == classUnrouted || (n.anonymousAddr() && g.allSuccUnrouted(id)) {
		if g.inferUnrouted(id) {
			return
		}
		g.decline(HeurUnrouted)
	}

	// §5.4.4 onenet.
	if sameAS := findAS(extAdj, n.extAS); n.class == classExternal && n.extAS != 0 && sameAS > 0 {
		g.claim(id, n.extAS, HeurOnenet, obs.Int(obs.KeyAdjacentSameASIfaces, int(sameAS))) // step 4.1
		return
	}
	if n.anonymousAddr() {
		if a := g.twoConsecutive(id); a != 0 { // step 4.2
			g.claim(id, a, HeurOnenet, obs.AS(obs.KeyConsecutiveAS, a))
			return
		}
		g.decline(HeurOnenet)
	}

	// §5.4.5 steps 5.1/5.2: third-party address detection. "Paths toward
	// B" include B's customer cone: a transit customer's border also
	// carries probes toward its own customers.
	if b := g.soleConeRoot(n.dests); !g.in.Opts.NoThirdParty &&
		n.class == classExternal && n.extAS != 0 && b != 0 {
		a := n.extAS
		if a != b && g.in.Rel.Rel(b, a) == topo.RelProvider {
			// The address belongs to the destination's provider: the
			// router used a route from its provider to respond.
			g.claim(id, b, HeurThirdParty,
				obs.AS(obs.KeyConeRoot, b),
				obs.AS(obs.KeyAddrOwnerProvides, b))
			g.claimThirdPartyPreds(id, b)
			return
		}
		g.decline(HeurThirdParty)
	}

	// §5.4.5 steps 5.3–5.5 for routers with anonymous addresses.
	if n.anonymousAddr() && len(extAdj) == 1 {
		a := extAdj[0].as
		switch g.in.Rel.Rel(host, a) {
		case topo.RelCustomer, topo.RelPeer: // step 5.3
			g.claim(id, a, HeurRelationship, obs.AS(obs.KeyAdjacentAS, a))
			return
		default:
			// Step 5.4 "missing customer": B provider of A, host provider
			// of B. The paper notes sibling organizations cause this
			// scenario (B numbers its routers from sibling A's space), so
			// require sibling evidence before overriding the IP-AS owner.
			for _, b := range g.in.Rel.ProvidersOf(a) {
				if g.in.Rel.Rel(host, b) == topo.RelCustomer &&
					g.in.Siblings != nil && g.in.Siblings.SameOrg(a, b) {
					g.claim(id, b, HeurMissingCust,
						obs.AS(obs.KeyAdjacentAS, a),
						obs.ASPair(obs.KeySiblingHit, a, b))
					return
				}
			}
			g.decline(HeurMissingCust)
			// Step 5.5 hidden peer: a single subsequent origin with no
			// known relationship.
			g.claim(id, a, HeurHiddenPeer, obs.AS(obs.KeyAdjacentAS, a))
			return
		}
	}

	// §5.4.6 step 6.1: counting among several adjacent origins.
	if n.anonymousAddr() && len(extAdj) > 1 {
		w := g.countWinner(extAdj)
		g.claim(id, w, HeurCount,
			obs.Int(obs.KeyAdjacentOrigins, len(extAdj)),
			obs.Int(obs.KeyWinnerIfaces, int(findAS(extAdj, w))))
		return
	}

	// §5.4.6 fallback: plain IP-AS mapping.
	if (n.class == classExternal || n.class == classMulti) && n.extAS != 0 {
		g.claim(id, n.extAS, HeurIPAS)
		return
	}

	// Anonymous routers with destinations but no other constraints:
	// the destination set is all we have (IXP LAN firewalls and the
	// remaining host-space cases).
	if n.anonymousAddr() && len(n.dests) == 1 && len(n.lastFor) > 0 {
		d := n.dests[0].as
		g.claim(id, d, HeurFirewall, obs.AS(obs.KeyLastHopToward, d))
		return
	}
	if na := g.nextas(id); n.anonymousAddr() && na != 0 && len(n.lastFor) > 0 {
		g.claim(id, na, HeurFirewall, obs.AS(obs.KeyCommonProviderOfDests, na))
	}
}

// claimThirdPartyPreds applies §5.4.5 step 5.1 — the one place the cascade
// claims a router other than the one being visited: a still-undecided
// router preceding third-party router id, observed only with host addresses
// and only toward B, belongs to B as well.
func (g *graph) claimThirdPartyPreds(id int32, b topo.ASN) {
	for _, e := range g.nodes[id].pred {
		p := g.ar.edges[e].from
		pn := &g.nodes[p]
		if !pn.done && pn.class == classHost && g.soleConeRoot(pn.dests) == b {
			g.claim(p, b, HeurThirdParty, obs.AS(obs.KeyConeRoot, b))
		}
	}
}

// soleConeRoot returns the single destination AS whose (inferred) customer
// cone covers every other destination in the set, or 0 when no unique such
// AS exists. With one destination it is that destination.
func (g *graph) soleConeRoot(dests []asCount) topo.ASN {
	switch len(dests) {
	case 0:
		return 0
	case 1:
		return dests[0].as
	}
	var root topo.ASN
	for _, be := range dests {
		b := be.as
		ok := true
		for _, de := range dests {
			d := de.as
			if d == b {
				continue
			}
			if g.in.Rel.Rel(d, b) != topo.RelProvider {
				ok = false
				break
			}
		}
		if ok {
			if root != 0 {
				return 0 // ambiguous
			}
			root = b
		}
	}
	return root
}

// allSuccUnrouted reports whether every successor edge of n crosses an
// unrouted (and non-host) address, with at least one successor.
func (g *graph) allSuccUnrouted(id int32) bool {
	n := &g.nodes[id]
	if len(n.succ) == 0 {
		return false
	}
	for _, e := range n.succ {
		for _, p := range g.ar.edges[e].pairs {
			if info := &g.ar.addrs[p.to]; info.routed || info.ixp || g.hostSpaceHas(p.to) {
				return false
			}
		}
	}
	return true
}

// inferUnrouted applies §5.4.3: reason from the origins of the first
// routed interfaces observed after the router. It makes at most one
// claim and reports whether it did.
func (g *graph) inferUnrouted(id int32) bool {
	n, ws := &g.nodes[id], &g.ar.ws
	asns := ws.asns[:0]
	for _, e := range n.firstRoutedAfter {
		if !g.vpASNs[e.as] {
			asns = append(asns, e.as)
		}
	}
	ws.asns = asns[:0]
	switch {
	case len(asns) == 1: // step 3.1
		g.claim(id, asns[0], HeurUnrouted)
		return true
	case len(asns) > 1: // step 3.2: most frequent provider of the set
		count := ws.counts[:0]
		for _, a := range asns {
			for _, p := range g.in.Rel.ProvidersOf(a) {
				count = bumpAS(count, p, 1)
			}
		}
		ws.counts = count[:0]
		var best topo.ASN
		bestN := int32(0)
		for _, e := range count {
			if e.n > bestN || (e.n == bestN && (best == 0 || e.as < best)) {
				best, bestN = e.as, e.n
			}
		}
		if best != 0 {
			g.claim(id, best, HeurUnrouted)
			return true
		}
		return false
	default:
		if na := g.nextas(id); na != 0 {
			g.claim(id, na, HeurUnrouted)
			return true
		}
		return false
	}
}

// twoConsecutive looks for two consecutive routers after n whose
// edge addresses map to one external AS (§5.4.4 step 4.2).
func (g *graph) twoConsecutive(id int32) topo.ASN {
	for _, e := range g.nodes[id].succ {
		a := g.edgeOrigin(e)
		if a == 0 {
			continue
		}
		v := g.ar.edges[e].to
		for _, e2 := range g.nodes[v].succ {
			if g.edgeOrigin(e2) == a {
				return a
			}
		}
	}
	return 0
}

// edgeOrigin returns the single external origin of the addresses by which
// the edge's far router was observed, or 0.
func (g *graph) edgeOrigin(e int32) topo.ASN {
	var out topo.ASN
	for _, p := range g.ar.edges[e].pairs {
		info := &g.ar.addrs[p.to]
		if !info.routed || info.host {
			return 0
		}
		if out == 0 {
			out = info.origins[0]
		} else if out != info.origins[0] {
			return 0
		}
	}
	return out
}

// countWinner picks the AS with the most adjacent interfaces, breaking
// ties in favor of a known relationship with the host (§5.4.6 step 6.1).
func (g *graph) countWinner(extAdj []asCount) topo.ASN {
	ws := &g.ar.ws
	entries := append(ws.counts[:0], extAdj...)
	ws.counts = entries[:0]
	best := entries[0]
	bestRel := g.in.Rel.Rel(g.in.HostASN, best.as) != topo.RelNone
	for _, e := range entries[1:] {
		if e.n != best.n {
			if e.n > best.n {
				best = e
				bestRel = g.in.Rel.Rel(g.in.HostASN, best.as) != topo.RelNone
			}
			continue
		}
		eRel := g.in.Rel.Rel(g.in.HostASN, e.as) != topo.RelNone
		if eRel != bestRel {
			if eRel {
				best, bestRel = e, true
			}
			continue
		}
		if e.as < best.as {
			best = e
		}
	}
	return best.as
}

// ---------------------------------------------------------------------------
// §5.4.7: analytical aliases on the near side

func (g *graph) passAnalyticalAliases() {
	if g.in.Data.Graph == nil {
		return // alias resolution was off (fig. 13's ablation)
	}
	var singles []int32
	for _, vid := range g.order {
		v := &g.nodes[vid]
		if v.host || v.owner == 0 || g.vpASNs[v.owner] {
			continue
		}
		// Host-side predecessors with a single observed interface; the
		// pred list is sorted by node id, so singles come out in id order.
		singles = singles[:0]
		for _, e := range v.pred {
			p := g.ar.edges[e].from
			pn := &g.nodes[p]
			if pn.host && len(pn.addrs) == 1 {
				singles = append(singles, p)
			}
		}
		if len(singles) < 2 {
			continue
		}
		base := singles[0]
		for _, u := range singles[1:] {
			// Merging must not contradict measurement: skip pairs some
			// probe actively rejected. The merge is the graph's alone;
			// the dataset's resolver records only what was measured.
			baseAddr, uAddr := g.nodes[base].addrs[0], g.nodes[u].addrs[0]
			if g.in.Data.Resolver != nil &&
				g.in.Data.Resolver.Verdict(baseAddr, uAddr) == alias.AliasNo {
				continue
			}
			g.in.Trace.Emit(obs.KindMerge, obs.OnAddr(baseAddr), 0,
				obs.IP(obs.KeyMerged, uAddr),
				obs.Str(obs.KeyVia, "analytical"))
			g.mergeNodes(base, u)
			g.in.Obs.Inc("core.alias.merges")
		}
	}
}

// findEdge returns the edge from->to, or -1.
func (g *graph) findEdge(from, to int32) int32 {
	if e, ok := g.ar.edgeIdx[uint64(uint32(from))<<32|uint64(uint32(to))]; ok {
		return e
	}
	return -1
}

// retargetEdge rewrites one endpoint of an edge, keeping the index map
// consistent (merge support; the old key is dropped).
func (g *graph) retargetEdge(e, from, to int32) {
	old := &g.ar.edges[e]
	delete(g.ar.edgeIdx, uint64(uint32(old.from))<<32|uint64(uint32(old.to)))
	old.from, old.to = from, to
	g.ar.edgeIdx[uint64(uint32(from))<<32|uint64(uint32(to))] = e
}

// removeEdge deletes edge e from an index list, in place.
func removeEdge(list []int32, e int32) []int32 {
	for i, x := range list {
		if x == e {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// insertSucc/insertPred keep the per-node lists sorted by neighbor id.
// The lists are capacity-bounded slab windows, so growth copies out.
func (g *graph) insertSucc(list []int32, e int32) []int32 {
	pos := len(list)
	for i, x := range list {
		if g.ar.edges[x].to > g.ar.edges[e].to {
			pos = i
			break
		}
	}
	list = append(list, 0)
	copy(list[pos+1:], list[pos:])
	list[pos] = e
	return list
}

func (g *graph) insertPred(list []int32, e int32) []int32 {
	pos := len(list)
	for i, x := range list {
		if g.ar.edges[x].from > g.ar.edges[e].from {
			pos = i
			break
		}
	}
	list = append(list, 0)
	copy(list[pos+1:], list[pos:])
	list[pos] = e
	return list
}

// mergeASCounts sums two sorted tallies into a fresh slice.
func mergeASCounts(a, b []asCount) []asCount {
	if len(b) == 0 {
		return a
	}
	out := make([]asCount, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].as < b[j].as:
			out = append(out, a[i])
			i++
		case a[i].as > b[j].as:
			out = append(out, b[j])
			j++
		default:
			out = append(out, asCount{as: a[i].as, n: a[i].n + b[j].n})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// mergeNodes folds src into dst: addresses union, adjacency rewired onto
// dst (pair order preserved, src's pairs appended after dst's), tallies
// summed. src keeps no state beyond the merged flag.
func (g *graph) mergeNodes(dst, src int32) {
	if dst == src {
		return
	}
	ar := g.ar
	d, s := &g.nodes[dst], &g.nodes[src]
	d.addrs = append(d.addrs, s.addrs...)
	addrs := d.addrs
	for i := 1; i < len(addrs); i++ {
		for j := i; j > 0 && addrs[j] < addrs[j-1]; j-- {
			addrs[j], addrs[j-1] = addrs[j-1], addrs[j]
		}
	}
	for _, a := range s.addrs {
		if aid, ok := g.intern.Lookup(a); ok {
			ar.addrs[aid].node = dst
		}
	}
	for _, e := range s.succ {
		to := ar.edges[e].to
		if to == dst {
			continue // the src->dst edge dies with src (removed from d.pred below)
		}
		if f := g.findEdge(dst, to); f >= 0 {
			ar.edges[f].pairs = append(ar.edges[f].pairs, ar.edges[e].pairs...)
			g.nodes[to].pred = removeEdge(g.nodes[to].pred, e)
			delete(ar.edgeIdx, uint64(uint32(src))<<32|uint64(uint32(to)))
		} else {
			g.retargetEdge(e, dst, to)
			d.succ = g.insertSucc(d.succ, e)
			g.nodes[to].pred = removeEdge(g.nodes[to].pred, e)
			g.nodes[to].pred = g.insertPred(g.nodes[to].pred, e)
		}
	}
	for _, e := range s.pred {
		from := ar.edges[e].from
		if from == dst {
			continue // the dst->src edge is removed from d.succ below
		}
		if f := g.findEdge(from, dst); f >= 0 {
			ar.edges[f].pairs = append(ar.edges[f].pairs, ar.edges[e].pairs...)
			g.nodes[from].succ = removeEdge(g.nodes[from].succ, e)
			delete(ar.edgeIdx, uint64(uint32(from))<<32|uint64(uint32(src)))
		} else {
			g.retargetEdge(e, from, dst)
			d.pred = g.insertPred(d.pred, e)
			g.nodes[from].succ = removeEdge(g.nodes[from].succ, e)
			g.nodes[from].succ = g.insertSucc(g.nodes[from].succ, e)
		}
	}
	if e := g.findEdge(dst, src); e >= 0 {
		d.succ = removeEdge(d.succ, e)
		delete(ar.edgeIdx, uint64(uint32(dst))<<32|uint64(uint32(src)))
	}
	if e := g.findEdge(src, dst); e >= 0 {
		d.pred = removeEdge(d.pred, e)
		delete(ar.edgeIdx, uint64(uint32(src))<<32|uint64(uint32(dst)))
	}
	if s.minTTL < d.minTTL {
		d.minTTL = s.minTTL
	}
	d.dests = mergeASCounts(d.dests, s.dests)
	d.lastFor = mergeASCounts(d.lastFor, s.lastFor)
	s.succ, s.pred = nil, nil
	s.addrs = nil
	s.done = true
	s.owner = 0
	s.host = false
	s.merged = true
}

// ---------------------------------------------------------------------------
// Result assembly and §5.4.8

func (g *graph) buildResult() *Result {
	res := &Result{
		VPName:    g.in.Data.VPName,
		Neighbors: make(map[topo.ASN][]*Link),
		Intern:    g.intern,
	}
	nodeOut := make([]int32, len(g.nodes))
	for i := range nodeOut {
		nodeOut[i] = -1
	}
	for _, id := range g.order {
		n := &g.nodes[id]
		if n.merged {
			continue
		}
		rn := &RouterNode{
			ID:        len(res.Routers),
			Addrs:     n.addrs,
			Owner:     n.owner,
			Heuristic: n.heur,
			IsHost:    n.host || g.vpASNs[n.owner],
			HopDist:   n.minTTL,
		}
		res.Routers = append(res.Routers, rn)
		nodeOut[id] = int32(rn.ID)
	}
	res.routerByID = make([]int32, g.intern.Len())
	for i := range res.routerByID {
		res.routerByID[i] = -1
	}
	for idx, rn := range res.Routers {
		for _, a := range rn.Addrs {
			if aid, ok := g.intern.Lookup(a); ok {
				res.routerByID[aid] = int32(idx)
			}
		}
	}
	// Interdomain links: edges from a host router to an external-owned one.
	seen := make(map[[2]int32]bool)
	for _, id := range g.order {
		n := &g.nodes[id]
		if n.merged || nodeOut[id] < 0 || !isHostNode(res.Routers[nodeOut[id]]) {
			continue
		}
		for _, e := range n.succ {
			v := g.ar.edges[e].to
			if nodeOut[v] < 0 {
				continue
			}
			out := res.Routers[nodeOut[v]]
			if isHostNode(out) || out.Owner == 0 {
				continue
			}
			key := [2]int32{nodeOut[id], nodeOut[v]}
			if seen[key] {
				continue
			}
			seen[key] = true
			pair := g.ar.edges[e].pairs[0]
			res.Links = append(res.Links, &Link{
				Near: res.Routers[nodeOut[id]], Far: out,
				NearAddr: g.intern.Addr(pair.from), FarAddr: g.intern.Addr(pair.to),
				FarAS: out.Owner, Heuristic: out.Heuristic,
			})
		}
	}
	for _, l := range res.Links {
		res.Neighbors[l.FarAS] = append(res.Neighbors[l.FarAS], l)
	}
	return res
}

func isHostNode(rn *RouterNode) bool { return rn != nil && rn.IsHost }

// passSilent applies §5.4.8: place neighbors that never answered
// traceroute, using the BGP view's neighbor list.
func (g *graph) passSilent(res *Result) {
	host := g.in.HostASN
	for _, a := range g.in.View.NeighborsOf(host) {
		if g.vpASNs[a] || len(res.Neighbors[a]) > 0 {
			continue
		}
		fi, ok := g.finalNodes[a]
		if !ok || fi.multi {
			continue // different exits: cannot place the neighbor
		}
		r0 := &g.nodes[fi.n]
		if r0.merged || !r0.host {
			continue
		}
		// Distinguish a fully silent neighbor from one answering other
		// ICMP: echo replies whose source maps to the neighbor.
		heur := HeurSilent
		for _, src := range g.echoFrom[a] {
			if origins, _, ok := g.in.View.Origins(src); ok {
				for _, o := range origins {
					if o == a {
						heur = HeurOtherICMP
					}
				}
			}
		}
		near := res.RouterByAddr(r0.addrs[0])
		if near == nil {
			continue
		}
		l := &Link{Near: near, FarAS: a, Heuristic: heur}
		res.Links = append(res.Links, l)
		res.Neighbors[a] = append(res.Neighbors[a], l)
		g.in.Obs.Inc(heurFireName(heur))
		g.in.Trace.Emit(obs.KindDecision, obs.OnAS(a), 0,
			obs.Str(obs.KeyHeuristic, heur),
			obs.AS(obs.KeyOwner, a),
			obs.IP(obs.KeyNear, r0.addrs[0]),
			obs.IP(obs.KeyAddrs, r0.addrs[0]),
			obs.Str(obs.KeyRel, g.in.Rel.Rel(host, a).String()))
	}
}
