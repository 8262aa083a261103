package core

import (
	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// Incremental re-inference: splice prior attributions for clean routers.
//
// A router's final attribution is a pure function of the measurement data
// within three hops of it: every §5.4 heuristic reads evidence at most two
// hops away (twoConsecutive walks succ-of-succ edges, the multihomed
// exception inspects both routers' successors), and a router can
// additionally be claimed by a neighbor one hop away whose own decision
// reads two hops from *it* (§5.4.1 step 1.1, §5.4.5 step 5.1). So when a
// round's dirty-address set is known, any router more than three hops from
// every data-dirty router must resolve exactly as it did last round — its
// prior owner and heuristic are spliced in and the cascade never runs.
//
// Splicing skips a node's own inference but must not skip the claims its
// inference makes on *other* nodes, or a dirty neighbor at the closure
// boundary would miss a claim a from-scratch run delivers:
//   - §5.4.1 runs unmodified over spliced nodes too — its re-claims are
//     value-identical overwrites (the spliced node's two-hop neighborhood
//     is unchanged, so the pass reaches the same conclusion), and the
//     done-guards on its neighbor claims are unaffected.
//   - §5.4.5 step 5.1 is replayed: a spliced third-party router re-claims
//     its undecided host-class predecessors at its position in the visit
//     order, exactly as the live branch would.
// Everything downstream — §5.4.7 analytical aliases, result assembly,
// §5.4.8 silent neighbors — runs globally; it is cheap and order-pinned.
//
// mapdb's equivalence mode asserts the spliced map is byte-identical to a
// from-scratch run on the same world; the three-hop radius is the proof
// obligation those tests discharge.
//
// The working set — the dirty marks and the BFS frontier — lives in the
// arena and the previous result is consulted through its intern table, so
// a splice allocates nothing per node: no map of visited routers, no
// per-node address lookups beyond one interned-ID probe.

// spliceClean pre-claims every node whose three-hop neighborhood is free
// of dirty addresses, copying owner/heuristic/host from the previous
// round's result. dirty is the driver's changed-address set (nil means
// everything is dirty — no splicing).
func (g *graph) spliceClean(prev *Result, dirty map[netx.Addr]bool) {
	if prev == nil || dirty == nil {
		return
	}
	ar := g.ar
	mark := ar.nodeMark[:0]
	for range g.nodes {
		mark = append(mark, false)
	}
	// Data-dirty nodes: any interface address with changed trace evidence.
	frontier := ar.frontier[:0]
	dirtyN := 0
	for i := range g.nodes {
		for _, a := range g.nodes[i].addrs {
			if dirty[a] {
				mark[i] = true
				dirtyN++
				frontier = append(frontier, int32(i))
				break
			}
		}
	}
	// Three-hop closure over the undirected adjacency.
	next := ar.next[:0]
	for hop := 0; hop < 3; hop++ {
		next = next[:0]
		for _, id := range frontier {
			n := &g.nodes[id]
			for _, e := range n.succ {
				if s := ar.edges[e].to; !mark[s] {
					mark[s] = true
					dirtyN++
					next = append(next, s)
				}
			}
			for _, e := range n.pred {
				if p := ar.edges[e].from; !mark[p] {
					mark[p] = true
					dirtyN++
					next = append(next, p)
				}
			}
		}
		frontier, next = next, frontier
	}

	spliced := 0
	for i := range g.nodes {
		if mark[i] {
			continue
		}
		n := &g.nodes[i]
		rn := prev.routerFor(n.addrs[0])
		if rn == nil || rn.Owner == 0 {
			continue
		}
		// The prior router must cover exactly this node's addresses: an
		// analytical composite (§5.4.7) or re-grouped alias set fails the
		// match and the node runs live instead. Both sides are sorted.
		if len(rn.Addrs) != len(n.addrs) {
			continue
		}
		same := true
		for j := range n.addrs {
			if rn.Addrs[j] != n.addrs[j] {
				same = false
				break
			}
		}
		if !same {
			continue
		}
		n.owner, n.heur, n.host = rn.Owner, rn.Heuristic, rn.IsHost
		n.done, n.spliced = true, true
		spliced++
	}
	ar.nodeMark = mark[:0]
	ar.frontier = frontier[:0]
	ar.next = next[:0]
	g.in.Obs.Add("core.inc.spliced", int64(spliced))
	g.in.Obs.Add("core.inc.dirty_nodes", int64(dirtyN))
}

// replaySpliced makes the cross-node claims a spliced router's own
// inference would have made — today only §5.4.5 step 5.1, the sole
// heuristic that claims another router from inside the cascade. It runs at
// the spliced node's position in the visit order so the done-guards see
// the same state a from-scratch run would.
func (g *graph) replaySpliced(id int32) {
	n := &g.nodes[id]
	if g.in.Opts.NoThirdParty || n.heur != HeurThirdParty ||
		n.class != classExternal || n.extAS == 0 {
		return
	}
	b := g.soleConeRoot(n.dests)
	a := n.extAS
	if b == 0 || a == b || g.in.Rel.Rel(b, a) != topo.RelProvider {
		return
	}
	g.claimThirdPartyPreds(id, b)
}
