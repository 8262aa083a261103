package core

import (
	"cmp"
	"slices"

	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// buildGraphOracle is buildGraph as it was before the per-address table and
// the counted tallies, kept as the differential reference: three passes
// over the traces, a view lookup for every hop that asks, and per-node
// tallies sorted out of packed (node<<32|AS) event streams. Besides the
// graph it returns every prefix the positional host-space rule inserted.
func buildGraphOracle(in Input, ar *arena) (*graph, []netx.Prefix) {
	g := &graph{
		in:         in,
		vpASNs:     in.vpASNs(),
		intern:     netx.NewIntern(in.Data.Stats.AddrsObserved + 1),
		ar:         ar,
		echoFrom:   make(map[topo.ASN][]netx.Addr),
		finalNodes: make(map[topo.ASN]finalInfo),
	}
	var addrNode []int32 // interned addr ID -> node id, -1 when absent
	var listed []bool    // interned addr ID -> in its node's addrs
	internID := func(a netx.Addr) int32 {
		id := g.intern.ID(a)
		for int(id) >= len(addrNode) {
			addrNode = append(addrNode, -1)
			listed = append(listed, false)
		}
		return id
	}
	var inserted []netx.Prefix

	// Pass 0: the positional host-space rule (§5.4.1).
	for _, tr := range in.Data.Traces {
		lastHost := -1
		for i, h := range tr.Hops {
			if h.Type == probe.HopTimeExceeded && g.originIsHostOracle(h.Addr) {
				lastHost = i
			}
		}
		for i := 0; i < lastHost; i++ {
			h := tr.Hops[i]
			if h.Type != probe.HopTimeExceeded {
				continue
			}
			if _, _, routed := in.View.Origins(h.Addr); routed {
				continue
			}
			if in.RIR == nil {
				continue
			}
			if org, ok := in.RIR.OrgOf(h.Addr); ok {
				for _, rec := range in.RIR.OrgRecords(org) {
					if rec.Start <= h.Addr && h.Addr <= rec.End() {
						p := netx.MakePrefix(rec.Start, prefixLenFor(rec))
						g.hostExtra.Insert(p, true)
						inserted = append(inserted, p)
					}
				}
			}
		}
	}

	// Pass 1: create nodes (alias-merged), record adjacency and tally
	// events.
	getNode := func(a netx.Addr) (int32, int32) {
		aID := internID(a)
		canon := a
		if in.Data.Graph != nil {
			canon = in.Data.Graph.Canonical(a)
		}
		cID := aID
		if canon != a {
			cID = internID(canon)
		}
		if listed[aID] {
			return aID, addrNode[aID]
		}
		n := addrNode[cID]
		if n < 0 {
			n = int32(len(ar.nodes))
			ar.nodes = append(ar.nodes, node{minTTL: 1 << 30})
			addrNode[cID] = n
		}
		ar.nodes[n].addrs = append(ar.nodes[n].addrs, a)
		addrNode[aID], listed[aID] = n, true
		return aID, n
	}
	asKey := func(n int32, as topo.ASN) uint64 { return uint64(uint32(n))<<32 | uint64(as) }
	var destEv, lastEv, fraEv []uint64
	for _, tr := range in.Data.Traces {
		var prev, prevID int32 = -1, -1
		var lastResp int32 = -1
		first := true
		for _, h := range tr.Hops {
			switch h.Type {
			case probe.HopTimeExceeded:
				id, n := getNode(h.Addr)
				nd := &ar.nodes[n]
				if h.TTL < nd.minTTL {
					nd.minTTL = h.TTL
				}
				if first {
					nd.isVP = true
					first = false
				}
				destEv = append(destEv, asKey(n, tr.TargetAS))
				if prev >= 0 && prev != n {
					ar.adjEv = append(ar.adjEv, adjEvent{prev, n, addrPair{prevID, id}})
				}
				prev, prevID, lastResp = n, id, n
			case probe.HopEchoReply, probe.HopUnreachable:
				g.echoFrom[tr.TargetAS] = append(g.echoFrom[tr.TargetAS], h.Addr)
				prev = -1
			default:
				prev = -1
			}
		}
		if lastResp >= 0 {
			lastEv = append(lastEv, asKey(lastResp, tr.TargetAS))
			if fi, ok := g.finalNodes[tr.TargetAS]; !ok {
				g.finalNodes[tr.TargetAS] = finalInfo{n: lastResp}
			} else if fi.n != lastResp {
				fi.multi = true
				g.finalNodes[tr.TargetAS] = fi
			}
		}
	}

	// Pass 2: first routed address after each node (for §5.4.3).
	var seen []int32
	for _, tr := range in.Data.Traces {
		seen = seen[:0]
		for _, h := range tr.Hops {
			switch h.Type {
			case probe.HopTimeExceeded:
				id, ok := g.intern.Lookup(h.Addr)
				if !ok || addrNode[id] < 0 {
					continue
				}
				n := addrNode[id]
				if origins, _, ok := in.View.Origins(h.Addr); ok {
					for _, s := range seen {
						if s != n {
							fraEv = append(fraEv, asKey(s, origins[0]))
						}
					}
					seen = seen[:0]
				}
				seen = append(seen, n)
			case probe.HopEchoReply, probe.HopUnreachable:
				if origins, _, ok := in.View.Origins(h.Addr); ok {
					for _, s := range seen {
						fraEv = append(fraEv, asKey(s, origins[0]))
					}
					seen = seen[:0]
				}
			}
		}
	}
	g.nodes = ar.nodes

	g.buildEdges()
	g.compressEventsOracle(destEv, func(n int32, s []asCount) { g.nodes[n].dests = s })
	g.compressEventsOracle(lastEv, func(n int32, s []asCount) { g.nodes[n].lastFor = s })
	g.compressEventsOracle(fraEv, func(n int32, s []asCount) { g.nodes[n].firstRoutedAfter = s })

	for i := range g.nodes {
		n := &g.nodes[i]
		slices.Sort(n.addrs)
		n.class, n.extAS = g.classifyOracle(n.addrs)
	}
	order := ar.order
	for i := range g.nodes {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(g.nodes[a].minTTL, g.nodes[b].minTTL), cmp.Compare(a, b))
	})
	ar.order = order
	g.order = order
	return g, inserted
}

// compressEventsOracle sorts a packed (node<<32|AS) event stream and
// compresses its runs into per-node asCount windows.
func (g *graph) compressEventsOracle(ev []uint64, assign func(int32, []asCount)) {
	if len(ev) == 0 {
		return
	}
	slices.Sort(ev)
	var slab []asCount
	start := 0
	curNode := int32(int64(ev[0]) >> 32)
	for i := 0; i < len(ev); {
		key := ev[i]
		j := i + 1
		for j < len(ev) && ev[j] == key {
			j++
		}
		n := int32(int64(key) >> 32)
		if n != curNode {
			assign(curNode, slab[start:len(slab):len(slab)])
			start = len(slab)
			curNode = n
		}
		slab = append(slab, asCount{as: topo.ASN(uint32(key)), n: int32(j - i)})
		i = j
	}
	assign(curNode, slab[start:len(slab):len(slab)])
}

// originIsHostOracle is originIsHost asked of the view and the host space
// directly, by address.
func (g *graph) originIsHostOracle(addr netx.Addr) bool {
	if origins, _, ok := g.in.View.Origins(addr); ok {
		for _, o := range origins {
			if g.vpASNs[o] {
				return true
			}
		}
		return false
	}
	_, ok := g.hostExtra.Lookup(addr)
	return ok
}

// classifyOracle is classify asking the IXP list, the view and the host
// space about every address.
func (g *graph) classifyOracle(addrs []netx.Addr) (addrClass, topo.ASN) {
	anyHost, anyIXP, anyUnrouted := false, false, false
	var common []asCount
	nExt := 0
	for _, a := range addrs {
		if g.in.IXP != nil {
			if _, isIXP := g.in.IXP.IsIXP(a); isIXP {
				anyIXP = true
				continue
			}
		}
		origins, _, ok := g.in.View.Origins(a)
		if !ok {
			if _, host := g.hostExtra.Lookup(a); host {
				anyHost = true
			} else {
				anyUnrouted = true
			}
			continue
		}
		host := false
		for _, o := range origins {
			if g.vpASNs[o] {
				host = true
			}
		}
		if host {
			anyHost = true
			continue
		}
		nExt++
		for _, o := range origins {
			common = bumpAS(common, o, 1)
		}
	}
	switch {
	case anyIXP && !anyHost && nExt == 0:
		return classIXP, 0
	case anyHost && nExt == 0:
		return classHost, 0
	case anyUnrouted && !anyHost && nExt == 0:
		return classUnrouted, 0
	case nExt > 0:
		var best topo.ASN
		bestN := int32(0)
		for _, e := range common {
			if e.n > bestN || (e.n == bestN && (best == 0 || e.as < best)) {
				best, bestN = e.as, e.n
			}
		}
		if int(bestN) == nExt && singleFullCover(common, nExt) {
			return classExternal, best
		}
		return classMulti, best
	default:
		return classUnrouted, 0
	}
}

// succExternalOriginsOracle is succExternalOrigins asking the view about
// every successor address, deduplicated by address.
func (g *graph) succExternalOriginsOracle(id int32) []asCount {
	var out []asCount
	done := make(map[netx.Addr]bool)
	for _, e := range g.nodes[id].succ {
		for _, p := range g.ar.edges[e].pairs {
			to := g.intern.Addr(p.to)
			if done[to] {
				continue
			}
			done[to] = true
			origins, _, ok := g.in.View.Origins(to)
			if !ok {
				continue
			}
			isHost := false
			for _, o := range origins {
				if g.vpASNs[o] {
					isHost = true
				}
			}
			if !isHost {
				out = bumpAS(out, origins[0], 1)
			}
		}
	}
	return out
}

// allSuccUnroutedOracle is allSuccUnrouted asking the host space, the
// view and the IXP list about every successor address.
func (g *graph) allSuccUnroutedOracle(id int32) bool {
	n := &g.nodes[id]
	if len(n.succ) == 0 {
		return false
	}
	for _, e := range n.succ {
		for _, p := range g.ar.edges[e].pairs {
			to := g.intern.Addr(p.to)
			if g.originIsHostOracle(to) {
				return false
			}
			if _, _, ok := g.in.View.Origins(to); ok {
				return false
			}
			if g.in.IXP != nil {
				if _, isIXP := g.in.IXP.IsIXP(to); isIXP {
					return false
				}
			}
		}
	}
	return true
}

// hostSuccessorOracle is hostSuccessor asking originIsHostOracle.
func (g *graph) hostSuccessorOracle(id int32) int32 {
	for _, e := range g.nodes[id].succ {
		for _, p := range g.ar.edges[e].pairs {
			if g.originIsHostOracle(g.intern.Addr(p.to)) {
				return g.ar.edges[e].to
			}
		}
	}
	return -1
}

// edgeOriginOracle is edgeOrigin asking the view about every far address.
func (g *graph) edgeOriginOracle(e int32) topo.ASN {
	var out topo.ASN
	for _, p := range g.ar.edges[e].pairs {
		origins, _, ok := g.in.View.Origins(g.intern.Addr(p.to))
		if !ok {
			return 0
		}
		for _, o := range origins {
			if g.vpASNs[o] {
				return 0
			}
		}
		if out == 0 {
			out = origins[0]
		} else if out != origins[0] {
			return 0
		}
	}
	return out
}
