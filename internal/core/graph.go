package core

import (
	"cmp"
	"slices"

	"bdrmap/internal/asrel"
	"bdrmap/internal/bgp"
	"bdrmap/internal/ixp"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/rir"
	"bdrmap/internal/scamper"
	"bdrmap/internal/sibling"
	"bdrmap/internal/topo"
)

// Input bundles everything bdrmap consumes (§5.2 input data plus the
// collected measurements).
type Input struct {
	Data     *scamper.Dataset
	View     *bgp.View
	Rel      *asrel.Inference
	RIR      *rir.DB
	IXP      *ixp.PrefixList
	HostASN  topo.ASN
	Siblings *sibling.Set
	Opts     Options
	// Obs receives per-heuristic fire counts and attribution totals.
	// Nil disables them.
	Obs *obs.Registry
	// Trace receives one provenance event per §5.4 ownership decision —
	// the router, hop distance, constraints consulted, and which earlier
	// heuristics declined. Nil disables them.
	Trace *obs.Tracer
	// Spans receives one "stage" span ("infer") per inference, parented
	// under SpanParent, carrying router/link counts. Nil disables it.
	Spans *obs.SpanLog
	// SpanParent is the span the infer span attaches under (typically the
	// enclosing "vp" span; 0 makes it a root).
	SpanParent obs.SpanID
}

// Options disable individual heuristics for ablation studies (the paper's
// "without this step" comparisons); the zero value is the full algorithm.
type Options struct {
	// NoThirdParty disables §5.4.5 third-party address detection.
	NoThirdParty bool
}

// vpASNs returns the set of ASes belonging to the hosting organization.
func (in Input) vpASNs() map[topo.ASN]bool {
	out := map[topo.ASN]bool{in.HostASN: true}
	if in.Siblings != nil {
		for _, s := range in.Siblings.SiblingsOf(in.HostASN) {
			out[s] = true
		}
	}
	return out
}

// addrClass categorizes one observed address by IP-AS mapping.
type addrClass int8

const (
	classHost     addrClass = iota // originated by a VP AS (or host RIR space)
	classExternal                  // originated by exactly one external AS
	classMulti                     // multi-origin including no VP AS
	classIXP                       // inside a known IXP LAN prefix
	classUnrouted                  // no covering announced prefix
)

func (c addrClass) String() string {
	switch c {
	case classHost:
		return "host"
	case classExternal:
		return "external"
	case classMulti:
		return "multi-origin"
	case classIXP:
		return "ixp"
	default:
		return "unrouted"
	}
}

// node is the working state for one inferred router. Nodes live in the
// arena's slab and are addressed by their creation index; adjacency and
// tally slices are windows into arena slabs, while addrs is heap-owned
// because it is handed to the Result.
type node struct {
	addrs []netx.Addr // sorted after build

	succ []int32 // edge indices with from == this node, sorted by .to
	pred []int32 // edge indices with to == this node, sorted by .from

	dests            []asCount // target ASes of traces traversing this node
	lastFor          []asCount // target ASes whose traces ended here
	firstRoutedAfter []asCount // §5.4.3: origins of the first routed address after

	minTTL int
	class  addrClass
	extAS  topo.ASN // for classExternal (or a common origin for classMulti)
	isVP   bool     // contains the VP-side first hop

	owner  topo.ASN
	heur   Heuristic
	host   bool
	done   bool
	merged bool // folded into another node by §5.4.7
}

// finalInfo tracks, per target AS, the single last-responding router of
// its traces (§5.4.8 needs exactly-one to place a silent neighbor).
type finalInfo struct {
	n     int32
	multi bool
}

// graph is the router-level measurement graph plus lookup tables. Node and
// edge storage lives in the arena; g.nodes/g.order etc. alias its slabs.
type graph struct {
	in     Input
	vpASNs map[topo.ASN]bool
	intern *netx.Intern
	ar     *arena

	nodes []node
	order []int32

	// hostExtra covers unannounced blocks attributed to the host via the
	// positional RIR rule of §5.4.1.
	hostExtra netx.Trie[bool]

	// echo sources per target AS: origins of echo replies received when
	// tracing toward that AS (used by §5.4.8 step 8.2 and §5.4.3).
	echoFrom map[topo.ASN][]netx.Addr
	// finalNodes records the last-responding router per target AS.
	finalNodes map[topo.ASN]finalInfo

	// declined collects the heuristics that examined the node currently
	// being inferred and passed — consumed (and reset) by the next claim,
	// whose provenance event records them. Like the map-based core, the
	// list deliberately carries over from a router that declined every
	// rule into the next claim's provenance event.
	declined []Heuristic
}

// internID interns a. An address new to the table gets its row: what the
// view and the IXP list say about it, asked this once.
func (g *graph) internID(a netx.Addr) int32 {
	id := g.intern.ID(a)
	if int(id) < len(g.ar.addrs) {
		return id
	}
	info := addrInfo{node: -1}
	if g.in.IXP != nil {
		_, info.ixp = g.in.IXP.IsIXP(a)
	}
	if origins, _, ok := g.in.View.Origins(a); ok {
		info.origins, info.routed = origins, true
		for _, o := range origins {
			if g.vpASNs[o] {
				info.host = true
				break
			}
		}
	}
	g.ar.addrs = append(g.ar.addrs, info)
	return id
}

// nodeOf interns a hop address and returns its ID and router node, creating
// the node (alias-merged) the first time the address is seen. Nodes are
// created in first-seen order, so creation indices reproduce the map-based
// core's ids exactly. An alias seen before its set's canonical address
// gives the canonical address its node but does not list it there; the
// canonical address joins the node's addresses when it is seen itself.
func (g *graph) nodeOf(a netx.Addr) (id, n int32) {
	id = g.internID(a)
	if info := g.ar.addrs[id]; info.listed {
		return id, info.node
	}
	if n = g.ar.addrs[id].node; n < 0 {
		cID := id
		if g.in.Data.Graph != nil {
			if canon := g.in.Data.Graph.Canonical(a); canon != a {
				cID = g.internID(canon)
			}
		}
		if n = g.ar.addrs[cID].node; n < 0 {
			n = int32(len(g.ar.nodes))
			g.ar.nodes = append(g.ar.nodes, node{minTTL: 1 << 30})
			g.ar.addrs[cID].node = n
		}
	}
	g.ar.nodes[n].addrs = append(g.ar.nodes[n].addrs, a)
	g.ar.addrs[id].node, g.ar.addrs[id].listed = n, true
	return id, n
}

// origins returns what the view says about any address: the table's row
// when a is interned, the view itself otherwise.
func (g *graph) origins(a netx.Addr) ([]topo.ASN, bool) {
	if id, ok := g.intern.Lookup(a); ok {
		info := &g.ar.addrs[id]
		return info.origins, info.routed
	}
	origins, _, ok := g.in.View.Origins(a)
	return origins, ok
}

// buildGraph constructs nodes from the dataset's traces and alias graph.
func buildGraph(in Input, ar *arena) *graph {
	g := &graph{
		in:         in,
		vpASNs:     in.vpASNs(),
		intern:     netx.NewIntern(in.Data.Stats.AddrsObserved + 1),
		ar:         ar,
		echoFrom:   make(map[topo.ASN][]netx.Addr),
		finalNodes: make(map[topo.ASN]finalInfo),
	}

	// One pass over the traces. Each trace's hops are interned and turned
	// into nodes, adjacency and tally events first (nothing there reads
	// what the host-space rule writes); then the trace's positional
	// host-space rule and its first-routed-after events read the hop IDs
	// addTrace leaves in ar.hopIDs.
	for i := range in.Data.Traces {
		tr := &in.Data.Traces[i]
		g.addTrace(tr)
		g.hostSpace(tr.Hops)
		g.routedAfter(tr.Hops)
	}
	g.nodes = g.ar.nodes

	g.buildEdges()
	g.buildTallies()

	// Classify every node.
	for i := range g.nodes {
		n := &g.nodes[i]
		slices.Sort(n.addrs)
		n.class, n.extAS = g.classify(n.addrs)
	}
	// Visit order: by hop distance, then creation id for determinism.
	order := g.ar.order
	for i := range g.nodes {
		order = append(order, int32(i))
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(g.nodes[a].minTTL, g.nodes[b].minTTL), cmp.Compare(a, b))
	})
	g.ar.order = order
	g.order = order
	return g
}

// addTrace creates the nodes of one trace's responding hops (alias-merged)
// and records its adjacency and dests/lastFor events. It leaves each hop's
// interned ID in ar.hopIDs, -1 for a hop that is not a time-exceeded reply.
func (g *graph) addTrace(tr *scamper.TraceRecord) {
	ids := g.ar.hopIDs[:0]
	var prev, prevID int32 = -1, -1
	var lastResp int32 = -1
	first := true
	for _, h := range tr.Hops {
		id := int32(-1)
		switch h.Type {
		case probe.HopTimeExceeded:
			var n int32
			id, n = g.nodeOf(h.Addr)
			nd := &g.ar.nodes[n]
			if h.TTL < nd.minTTL {
				nd.minTTL = h.TTL
			}
			if first {
				nd.isVP = true
				first = false
			}
			g.ar.dests.add(n, tr.TargetAS)
			if prev >= 0 && prev != n {
				g.ar.adjEv = append(g.ar.adjEv, adjEvent{prev, n, addrPair{prevID, id}})
			}
			prev, prevID, lastResp = n, id, n
		case probe.HopEchoReply, probe.HopUnreachable:
			// §5.4.8 step 8.2 accepts both echo replies and
			// destination unreachables as evidence of the neighbor.
			g.echoFrom[tr.TargetAS] = append(g.echoFrom[tr.TargetAS], h.Addr)
			prev = -1
		default:
			// A timeout breaks adjacency: the next responder is not
			// necessarily connected to the previous one.
			prev = -1
		}
		ids = append(ids, id)
	}
	g.ar.hopIDs = ids
	if lastResp >= 0 {
		g.ar.lastFor.add(lastResp, tr.TargetAS)
		if fi, ok := g.finalNodes[tr.TargetAS]; !ok {
			g.finalNodes[tr.TargetAS] = finalInfo{n: lastResp}
		} else if fi.n != lastResp {
			fi.multi = true
			g.finalNodes[tr.TargetAS] = fi
		}
	}
}

// hostSpace applies the positional host-space rule (§5.4.1) to one trace:
// any unrouted address appearing before a VP-AS address is host space, so
// its whole RIR delegation is attributed to the host organization. What
// the rule inserts depends on the address alone, so each address is
// looked up in the RIR once.
func (g *graph) hostSpace(hops []probe.Hop) {
	if g.in.RIR == nil {
		return
	}
	ids := g.ar.hopIDs
	lastHost := -1
	for i, id := range ids {
		if id >= 0 && g.originIsHost(id) {
			lastHost = i
		}
	}
	for i, id := range ids[:max(lastHost, 0)] {
		if id < 0 {
			continue
		}
		info := &g.ar.addrs[id]
		if info.routed || info.spaced {
			continue
		}
		info.spaced = true
		a := hops[i].Addr
		if org, ok := g.in.RIR.OrgOf(a); ok {
			for _, rec := range g.in.RIR.OrgRecords(org) {
				if rec.Start <= a && a <= rec.End() {
					g.hostExtra.Insert(netx.MakePrefix(rec.Start, prefixLenFor(rec)), true)
				}
			}
		}
	}
}

// routedAfter records one trace's firstRoutedAfter events (for §5.4.3): for
// each node, the origin of the first routed address that follows it.
func (g *graph) routedAfter(hops []probe.Hop) {
	seen := g.ar.seen[:0]
	for i, id := range g.ar.hopIDs {
		n := int32(-1) // the hop's node; none for an echo or unreachable
		var origins []topo.ASN
		var routed bool
		switch h := hops[i]; {
		case id >= 0:
			info := &g.ar.addrs[id]
			n, origins, routed = info.node, info.origins, info.routed
		case h.Type == probe.HopEchoReply || h.Type == probe.HopUnreachable:
			origins, routed = g.origins(h.Addr)
		default:
			continue
		}
		if routed {
			for _, s := range seen {
				if s != n {
					g.ar.firstRoutedAfter.add(s, origins[0])
				}
			}
			seen = seen[:0]
		}
		if n >= 0 {
			seen = append(seen, n)
		}
	}
	g.ar.seen = seen[:0]
}

// buildEdges compresses the adjacency event stream into the edge slab:
// one directed record per observed (from, to) router pair, with its
// address pairs in trace order, and per-node succ/pred index lists sorted
// by neighbor id.
func (g *graph) buildEdges() {
	ar := g.ar
	if ar.edgeIdx == nil {
		ar.edgeIdx = make(map[uint64]int32, 256)
	}
	// Assign edge ids in first-seen order; count pairs per edge.
	for _, ev := range ar.adjEv {
		key := uint64(uint32(ev.from))<<32 | uint64(uint32(ev.to))
		e, ok := ar.edgeIdx[key]
		if !ok {
			e = int32(len(ar.edges))
			ar.edges = append(ar.edges, edge{from: ev.from, to: ev.to})
			ar.edgeCnt = append(ar.edgeCnt, 0)
			ar.edgeIdx[key] = e
		}
		ar.edgeCnt[e]++
	}
	// Carve per-edge pair windows out of the slab, then fill in order.
	if cap(ar.pairSlab) < len(ar.adjEv) {
		ar.pairSlab = make([]addrPair, 0, len(ar.adjEv))
	}
	ar.pairSlab = ar.pairSlab[:len(ar.adjEv)]
	off := int32(0)
	for e := range ar.edges {
		cnt := ar.edgeCnt[e]
		ar.edges[e].pairs = ar.pairSlab[off : off : off+cnt]
		off += cnt
	}
	for _, ev := range ar.adjEv {
		key := uint64(uint32(ev.from))<<32 | uint64(uint32(ev.to))
		e := ar.edgeIdx[key]
		ar.edges[e].pairs = append(ar.edges[e].pairs, ev.pair)
	}
	// Per-node succ/pred lists, CSR-style: count, carve, fill, sort.
	nNodes := len(g.nodes)
	succCnt := make([]int32, nNodes)
	predCnt := make([]int32, nNodes)
	for e := range ar.edges {
		succCnt[ar.edges[e].from]++
		predCnt[ar.edges[e].to]++
	}
	total := len(ar.edges)
	if cap(ar.succSlab) < total {
		ar.succSlab = make([]int32, 0, total)
	}
	if cap(ar.predSlab) < total {
		ar.predSlab = make([]int32, 0, total)
	}
	ar.succSlab = ar.succSlab[:total]
	ar.predSlab = ar.predSlab[:total]
	so, po := int32(0), int32(0)
	for i := 0; i < nNodes; i++ {
		n := &g.nodes[i]
		n.succ = ar.succSlab[so : so : so+succCnt[i]]
		n.pred = ar.predSlab[po : po : po+predCnt[i]]
		so += succCnt[i]
		po += predCnt[i]
	}
	for e := range ar.edges {
		f, t := ar.edges[e].from, ar.edges[e].to
		g.nodes[f].succ = append(g.nodes[f].succ, int32(e))
		g.nodes[t].pred = append(g.nodes[t].pred, int32(e))
	}
	// Insertion sort: per-node degree is small and sort.Slice's closure
	// plus interface header would be the hot path's only allocations.
	for i := 0; i < nNodes; i++ {
		n := &g.nodes[i]
		sortEdgesBy(n.succ, func(e int32) int32 { return ar.edges[e].to })
		sortEdgesBy(n.pred, func(e int32) int32 { return ar.edges[e].from })
	}
}

// sortEdgesBy insertion-sorts an edge-index list by the given key. The
// callers' closures capture only the arena pointer, so the call compiles
// allocation-free.
func sortEdgesBy(s []int32, key func(int32) int32) {
	for i := 1; i < len(s); i++ {
		e := s[i]
		k := key(e)
		j := i - 1
		for j >= 0 && key(s[j]) > k {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = e
	}
}

// buildTallies lays the three tallies' runs out as per-node asCount
// windows of the shared slab, each sorted by AS.
func (g *graph) buildTallies() {
	ar := g.ar
	ar.asSlab = slices.Grow(ar.asSlab, len(ar.dests.runs)+len(ar.lastFor.runs)+len(ar.firstRoutedAfter.runs))
	g.countRuns(&ar.dests, func(n *node, s []asCount) { n.dests = s })
	g.countRuns(&ar.lastFor, func(n *node, s []asCount) { n.lastFor = s })
	g.countRuns(&ar.firstRoutedAfter, func(n *node, s []asCount) { n.firstRoutedAfter = s })
}

// countRuns sorts t's runs by node with one stable counting pass into the
// slab, then sorts each node's window by AS, folds repeated ASes, and hands
// the node its window.
func (g *graph) countRuns(t *tally, assign func(*node, []asCount)) {
	ar := g.ar
	if len(t.runs) == 0 {
		return
	}
	// cnt[n+1] counts node n's runs; the prefix sum turns cnt[n] into the
	// start of n's window, and the fill below advances it to the end.
	cnt := slices.Grow(ar.nodeCnt[:0], len(g.nodes)+1)[:len(g.nodes)+1]
	clear(cnt)
	for _, r := range t.runs {
		cnt[r.node+1]++
	}
	for n := 1; n < len(cnt); n++ {
		cnt[n] += cnt[n-1]
	}
	base := len(ar.asSlab)
	ar.asSlab = ar.asSlab[:base+len(t.runs)]
	slab := ar.asSlab[base:]
	for _, r := range t.runs {
		slab[cnt[r.node]] = r.c
		cnt[r.node]++
	}
	lo := int32(0)
	for n := range g.nodes {
		if hi := cnt[n]; hi > lo {
			w := foldRuns(slab[lo:hi])
			assign(&g.nodes[n], w[:len(w):len(w)])
			lo = hi
		}
	}
	ar.nodeCnt = cnt[:0]
}

// foldRuns sorts one node's runs by AS and sums the runs of each AS into
// one entry, in place; it returns the folded prefix.
func foldRuns(w []asCount) []asCount {
	slices.SortFunc(w, func(a, b asCount) int { return cmp.Compare(a.as, b.as) })
	k := 0
	for _, c := range w[1:] {
		if c.as == w[k].as {
			w[k].n += c.n
		} else {
			k++
			w[k] = c
		}
	}
	return w[:k+1]
}

// prefixLenFor converts a delegation record's count into a prefix length
// (counts are powers of two in our synthetic data).
func prefixLenFor(rec rir.Record) int {
	n := rec.Count
	l := 32
	for n > 1 {
		n >>= 1
		l--
	}
	return l
}

// heurFireNames precomputes the per-heuristic obs counter names so claim
// performs no string concatenation on the hot path.
var heurFireNames = func() map[Heuristic]string {
	m := make(map[Heuristic]string)
	for _, h := range []Heuristic{
		HeurHostNetwork, HeurMultihomed, HeurFirewall, HeurUnrouted,
		HeurOnenet, HeurThirdParty, HeurRelationship, HeurMissingCust,
		HeurHiddenPeer, HeurCount, HeurIPAS, HeurIXP, HeurSilent,
		HeurOtherICMP,
	} {
		m[h] = "core.heur.fire." + string(h)
	}
	return m
}()

func heurFireName(h Heuristic) string {
	if s, ok := heurFireNames[h]; ok {
		return s
	}
	return "core.heur.fire." + string(h)
}

// claim records an ownership decision: rule h attributes router n to owner.
// Every heuristic routes its conclusion through here so the obs registry
// tallies exactly one core.heur.fire.<tag> increment per decided router and
// the tracer receives exactly one provenance event per decision, carrying
// the standard constraint set (origin AS, AS relationship, address class,
// hop distance, declined heuristics) plus any rule-specific evidence.
func (g *graph) claim(id int32, owner topo.ASN, h Heuristic, evidence ...obs.Field) {
	n := &g.nodes[id]
	n.owner, n.heur, n.done = owner, h, true
	if g.vpASNs[owner] {
		n.host = true
		g.in.Obs.Inc("core.attr.host")
	} else {
		g.in.Obs.Inc("core.attr.external")
	}
	g.in.Obs.Inc(heurFireName(h))
	// What the node's own addresses say about its owner — the prefix→origin
	// constraint the decision consulted — is an AS when there is one.
	origin := obs.Str(obs.KeyOriginAS, n.class.String())
	if n.extAS != 0 {
		origin = obs.AS(obs.KeyOriginAS, n.extAS)
	}
	var declined obs.Field
	if len(g.declined) > 0 {
		declined = obs.Strs(obs.KeyDeclined, g.declined)
	}
	var buf [10]obs.Field // the constraint set and at most two of evidence
	g.in.Trace.Emit(obs.KindDecision, obs.OnAddr(n.addrs[0]), 0, append(append(buf[:0],
		obs.Str(obs.KeyHeuristic, h),
		obs.AS(obs.KeyOwner, owner),
		obs.Int(obs.KeyHop, n.minTTL),
		obs.Str(obs.KeyClass, n.class.String()),
		obs.IPs(obs.KeyAddrs, n.addrs),
		origin,
		obs.Str(obs.KeyRel, g.in.Rel.Rel(g.in.HostASN, owner).String()),
		declined,
	), evidence...)...)
	g.declined = g.declined[:0]
}

// decline notes that heuristic h examined the current node and passed; the
// next claim's provenance event records the accumulated list.
func (g *graph) decline(h Heuristic) { g.declined = append(g.declined, h) }

// originIsHost reports whether interned address id maps to the hosting
// organization: by its origins when routed, by the host space the
// positional rule has attributed so far when not.
func (g *graph) originIsHost(id int32) bool {
	if info := &g.ar.addrs[id]; info.routed {
		return info.host
	}
	return g.hostSpaceHas(id)
}

// hostSpaceHas reports whether interned address id lies in host space the
// positional rule attributed (§5.4.1).
func (g *graph) hostSpaceHas(id int32) bool {
	_, ok := g.hostExtra.Lookup(g.intern.Addr(id))
	return ok
}

// classify determines the address class of a node from all its addresses.
func (g *graph) classify(addrs []netx.Addr) (addrClass, topo.ASN) {
	anyHost, anyIXP, anyUnrouted := false, false, false
	common := g.ar.ws.counts[:0]
	nExt := 0
	for _, a := range addrs {
		id, _ := g.intern.Lookup(a)
		info := &g.ar.addrs[id]
		switch {
		case info.ixp:
			anyIXP = true
		case g.originIsHost(id):
			anyHost = true
		case !info.routed:
			anyUnrouted = true
		default:
			nExt++
			for _, o := range info.origins {
				common = bumpAS(common, o, 1)
			}
		}
	}
	g.ar.ws.counts = common[:0]
	switch {
	case anyIXP && !anyHost && nExt == 0:
		return classIXP, 0
	case anyHost && nExt == 0:
		return classHost, 0
	case anyUnrouted && !anyHost && nExt == 0:
		return classUnrouted, 0
	case nExt > 0:
		// Single common external origin?
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

// bumpAS adds delta to as's tally in a sorted asCount slice, inserting it
// if absent. The slice is scratch space: small, reused, sorted by AS.
func bumpAS(s []asCount, as topo.ASN, delta int32) []asCount {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid].as < as {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo].as == as {
		s[lo].n += delta
		return s
	}
	s = append(s, asCount{})
	copy(s[lo+1:], s[lo:])
	s[lo] = asCount{as: as, n: delta}
	return s
}

// singleFullCover reports whether exactly one origin covers all external
// addresses.
func singleFullCover(common []asCount, nExt int) bool {
	full := 0
	for _, e := range common {
		if int(e.n) == nExt {
			full++
		}
	}
	return full == 1
}

// destHas reports whether as is among n's destination ASes.
func (n *node) destHas(as topo.ASN) bool { return findAS(n.dests, as) > 0 }

// succExternalOrigins tallies, per external AS, how many distinct adjacent
// successor addresses map to it. The result is the workspace's extAdj
// buffer (sorted by AS), valid until the next call.
func (g *graph) succExternalOrigins(id int32) []asCount {
	ws := &g.ar.ws
	out := ws.extAdj[:0]
	ws.nextEpoch()
	n := &g.nodes[id]
	for _, e := range n.succ {
		for _, p := range g.ar.edges[e].pairs {
			if ws.mark(p.to) {
				continue
			}
			if info := &g.ar.addrs[p.to]; info.routed && !info.host {
				out = bumpAS(out, info.origins[0], 1)
			}
		}
	}
	ws.extAdj = out
	return out
}

// nextas computes the candidate owner of §5.4: the most common inferred
// provider among the destination ASes probed through the node.
func (g *graph) nextas(id int32) topo.ASN {
	n, ws := &g.nodes[id], &g.ar.ws
	if len(n.dests) < 2 {
		return 0
	}
	count := ws.counts[:0]
	for _, d := range n.dests {
		for _, p := range g.in.Rel.ProvidersOf(d.as) {
			count = bumpAS(count, p, 1)
		}
	}
	ws.counts = count[:0]
	var best topo.ASN
	bestN := int32(0)
	better := func(p topo.ASN, c int32) bool {
		if c != bestN {
			return c > bestN
		}
		// Tie-break: an AS that is itself among the destinations is the
		// likely transit for the others (a transit customer with its own
		// customers behind it).
		pIn := n.destHas(p)
		bIn := n.destHas(best)
		if pIn != bIn {
			return pIn
		}
		return best == 0 || p < best
	}
	for _, e := range count {
		if better(e.as, e.n) {
			best, bestN = e.as, e.n
		}
	}
	return best
}
