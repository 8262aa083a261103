package bgp

import (
	"sort"
	"testing"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// The per-prefix oracle: routing as it was before announcement atoms, kept
// verbatim as the differential reference. It runs the whole three-sweep
// propagation for one prefix over its own ASN-ordered adjacency lists,
// re-deriving the relationship of every edge in every sweep and scanning
// the network's pinned-prefix list per prefix, and it collects one path
// walk per (prefix, vantage), over a dense result of its own for every AS.
// Nothing here is shared with the atom path except the Table's index maps.

type oracleTable struct {
	*Table
	adj       [][]edge // per dense index, neighbors as dense indexes
	hidden    []bool   // per dense index: a hidden neighbor of the host
	originsOf map[netx.Prefix][]int32
	cache     map[netx.Prefix]*oracleRIB
}

// oracleRIB is one prefix's routes at every AS, by dense index.
type oracleRIB struct {
	Class          []Class
	Len            []int16
	Next           []int32 // canonical next-hop index; -1 at origins and routeless ASes
	HostCandidates []topo.ASN
	HostSuppressed bool
	pinnedOK       map[int32]bool // nil: announced everywhere
}

// exportAllowed gates the origin's direct announcements for pinned
// prefixes: x (an origin) exports to recv only over pinned links.
func (r *oracleRIB) exportAllowed(x, recv int32) bool {
	if r.pinnedOK == nil || r.Class[x] != ClassOrigin {
		return true
	}
	return r.pinnedOK[recv]
}

func newOracleTable(t *Table) *oracleTable {
	o := &oracleTable{
		Table:     t,
		adj:       make([][]edge, len(t.asns)),
		hidden:    make([]bool, len(t.asns)),
		originsOf: make(map[netx.Prefix][]int32),
		cache:     make(map[netx.Prefix]*oracleRIB),
	}
	for i, asn := range t.asns {
		o.hidden[i] = t.Net.HiddenNeighbors[asn]
		for _, nb := range t.Net.ASes[asn].Neighbors() {
			if j, ok := t.idx[nb.ASN]; ok {
				o.adj[i] = append(o.adj[i], edge{n: j, rel: nb.Rel})
			}
		}
		for _, p := range t.Net.ASes[asn].Prefixes {
			o.originsOf[p] = append(o.originsOf[p], int32(i))
		}
	}
	return o
}

func (t *oracleTable) Routes(p netx.Prefix) *oracleRIB {
	if r, ok := t.cache[p]; ok {
		return r
	}
	r := t.compute(p)
	t.cache[p] = r
	return r
}

// compute runs the three-phase valley-free propagation for one prefix.
func (t *oracleTable) compute(p netx.Prefix) *oracleRIB {
	n := len(t.asns)
	r := &oracleRIB{
		Class: make([]Class, n),
		Len:   make([]int16, n),
		Next:  make([]int32, n),
	}
	for i := range r.Class {
		r.Class[i] = ClassNone
		r.Len[i] = int16(0x7fff)
		r.Next[i] = -1
	}
	origins := t.originsOf[p]
	for _, o := range origins {
		r.Class[o] = ClassOrigin
		r.Len[o] = 0
	}
	t.pinnedRecv(r, p)

	// Valley-free propagation: three ordered sweeps suffice (customer
	// routes up, one peer hop across, everything down to customers).
	t.relaxCustomer(r, origins)
	t.relaxPeer(r)
	t.relaxProvider(r)

	t.fillNextHops(r)
	return r
}

// pinnedRecv computes, for a selectively-announced prefix (§6), which
// neighbors of the origin actually hear the announcement: only the ASes on
// the far side of the links the prefix is pinned to. nil means unpinned.
func (t *oracleTable) pinnedRecv(r *oracleRIB, p netx.Prefix) {
	pinned := false
	for _, pp := range t.Net.PinnedPrefixes() {
		if pp == p {
			pinned = true
			break
		}
	}
	if !pinned {
		return
	}
	r.pinnedOK = make(map[int32]bool)
	for _, o := range t.originsOf[p] {
		for _, att := range t.Net.Attachments(t.asns[o]) {
			if t.Net.AnnouncedOnLink(p, att.Link) {
				if i, ok := t.idx[att.Remote]; ok {
					r.pinnedOK[i] = true
				}
			}
		}
	}
}

// relaxCustomer propagates origin/customer routes up provider and sibling
// edges in BFS order of path length.
func (t *oracleTable) relaxCustomer(r *oracleRIB, origins []int32) {
	queue := append([]int32(nil), origins...)
	for len(queue) > 0 {
		var next []int32
		for _, x := range queue {
			cx := r.Class[x]
			if cx > ClassCustomer {
				continue
			}
			for _, e := range t.adj[x] {
				if !r.exportAllowed(x, e.n) {
					continue
				}
				// What is x to e.n? e.rel is what e.n is to x; invert.
				relToRecv := e.rel.Invert()
				var cr Class
				switch relToRecv {
				case topo.RelCustomer: // x is e.n's customer
					cr = ClassCustomer
				case topo.RelSibling:
					cr = ClassCustomer
				default:
					continue
				}
				nl := r.Len[x] + 1
				if cr < r.Class[e.n] || (cr == r.Class[e.n] && nl < r.Len[e.n]) {
					r.Class[e.n] = cr
					r.Len[e.n] = nl
					next = append(next, e.n)
				}
			}
		}
		queue = next
	}
}

// relaxPeer hands customer-cone routes across a single peer edge.
func (t *oracleTable) relaxPeer(r *oracleRIB) {
	type upd struct {
		i int32
		l int16
	}
	var updates []upd
	for x := range t.adj {
		if r.Class[x] > ClassCustomer {
			continue
		}
		for _, e := range t.adj[int32(x)] {
			if e.rel.Invert() != topo.RelPeer { // x is e.n's peer
				continue
			}
			if !r.exportAllowed(int32(x), e.n) {
				continue
			}
			nl := r.Len[x] + 1
			if ClassPeer < r.Class[e.n] || (ClassPeer == r.Class[e.n] && nl < r.Len[e.n]) {
				updates = append(updates, upd{e.n, nl})
			}
		}
	}
	for _, u := range updates {
		if ClassPeer < r.Class[u.i] || (ClassPeer == r.Class[u.i] && u.l < r.Len[u.i]) {
			r.Class[u.i] = ClassPeer
			r.Len[u.i] = u.l
		}
	}
	// Peer routes also cross sibling sessions.
	t.relaxSiblings(r, ClassPeer)
}

// relaxProvider floods any route down provider → customer edges (and
// sibling sessions) in BFS order.
func (t *oracleTable) relaxProvider(r *oracleRIB) {
	buf := new([]int32)
	var queue []int32
	for x := range t.adj {
		if r.Class[x] != ClassNone {
			queue = append(queue, int32(x))
		}
	}
	for len(queue) > 0 {
		var next []int32
		for _, x := range queue {
			if r.Class[x] == ClassNone {
				continue
			}
			// Routes learned across hidden (no-export) sessions are never
			// re-announced, by either party.
			if t.bestViaHiddenSession(r, x, buf) {
				continue
			}
			for _, e := range t.adj[x] {
				if e.rel.Invert() != topo.RelProvider && e.rel.Invert() != topo.RelSibling {
					continue // x must be e.n's provider (or sibling)
				}
				if !r.exportAllowed(x, e.n) {
					continue
				}
				nl := r.Len[x] + 1
				if ClassProvider < r.Class[e.n] || (ClassProvider == r.Class[e.n] && nl < r.Len[e.n]) {
					r.Class[e.n] = ClassProvider
					r.Len[e.n] = nl
					next = append(next, e.n)
				}
			}
		}
		queue = next
	}
}

// relaxSiblings propagates routes of exactly class c across sibling edges.
func (t *oracleTable) relaxSiblings(r *oracleRIB, c Class) {
	changed := true
	for changed {
		changed = false
		for x := range t.adj {
			if r.Class[x] != c {
				continue
			}
			for _, e := range t.adj[int32(x)] {
				if e.rel != topo.RelSibling {
					continue
				}
				nl := r.Len[x] + 1
				if c < r.Class[e.n] || (c == r.Class[e.n] && nl < r.Len[e.n]) {
					r.Class[e.n] = c
					r.Len[e.n] = nl
					changed = true
				}
			}
		}
	}
}

// hostBestHidden reports whether every equal-best next hop at the host is a
// hidden neighbor. Must be called after the peer phase.
func (t *oracleTable) hostBestHidden(r *oracleRIB, buf *[]int32) bool {
	if r.Class[t.hostIdx] != ClassPeer {
		return false
	}
	cands := t.candidatesAt(r, t.hostIdx, buf)
	if len(cands) == 0 {
		return false
	}
	for _, c := range cands {
		if !t.hidden[c] {
			return false
		}
	}
	return true
}

// bestViaHiddenSession reports whether AS x's only best routes cross a
// hidden (no-export) session with the host: either x is the host and all
// candidates are hidden neighbors, or x is a hidden neighbor and all its
// candidates are the host. Such routes are used for forwarding but never
// re-announced or reported to collectors.
func (t *oracleTable) bestViaHiddenSession(r *oracleRIB, x int32, buf *[]int32) bool {
	if x == t.hostIdx {
		return t.hostBestHidden(r, buf)
	}
	if !t.hidden[x] || r.Class[x] != ClassPeer {
		return false
	}
	cands := t.candidatesAt(r, x, buf)
	if len(cands) == 0 {
		return false
	}
	for _, c := range cands {
		if c != t.hostIdx {
			return false
		}
	}
	return true
}

// candidatesAt lists the dense indexes of all neighbors providing the
// equal-best route to AS x, sorted by neighbor ASN. The result aliases
// *buf and is only valid until the next call with the same buffer; growth
// is written back through buf so callers amortize one allocation across a
// whole propagation.
func (t *oracleTable) candidatesAt(r *oracleRIB, x int32, buf *[]int32) []int32 {
	if r.Class[x] == ClassOrigin || r.Class[x] == ClassNone {
		return nil
	}
	out := (*buf)[:0]
	for _, e := range t.adj[x] {
		cN := r.Class[e.n]
		if cN == ClassNone {
			continue
		}
		if !r.exportAllowed(e.n, x) {
			continue
		}
		got := receivedClass(cN, e.rel)
		if got == ClassNone {
			continue
		}
		if got == r.Class[x] && r.Len[e.n]+1 == r.Len[x] {
			out = append(out, e.n)
		}
	}
	*buf = out
	// Candidate sets are tiny (the equal-best neighbors of one AS);
	// insertion sort avoids sort.Slice's closure and interface allocations.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && t.asns[out[j]] < t.asns[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// fillNextHops selects canonical next hops and the host candidate set.
func (t *oracleTable) fillNextHops(r *oracleRIB) {
	buf := new([]int32)
	for x := range t.adj {
		if r.Class[x] == ClassOrigin || r.Class[x] == ClassNone {
			continue
		}
		cands := t.candidatesAt(r, int32(x), buf)
		if len(cands) == 0 {
			// No neighbor can justify the route (should not happen in a
			// consistent propagation); drop it defensively.
			r.Class[x] = ClassNone
			r.Len[x] = 0x7fff
			continue
		}
		r.Next[x] = cands[0]
		if int32(x) == t.hostIdx {
			for _, c := range cands {
				r.HostCandidates = append(r.HostCandidates, t.asns[c])
			}
		}
	}
	r.HostSuppressed = t.hostBestHidden(r, buf)
}

func (t *oracleTable) SuppressedAt(asn topo.ASN, r *oracleRIB) bool {
	i, ok := t.idx[asn]
	if !ok {
		return true
	}
	return t.bestViaHiddenSession(r, i, new([]int32))
}

func (t *oracleTable) Path(from topo.ASN, p netx.Prefix) []topo.ASN {
	i, ok := t.idx[from]
	if !ok {
		return nil
	}
	r := t.Routes(p)
	if r.Class[i] == ClassNone {
		return nil
	}
	path := []topo.ASN{from}
	for r.Class[i] != ClassOrigin {
		i = r.Next[i]
		if i < 0 || len(path) > len(t.asns) {
			return nil
		}
		path = append(path, t.asns[i])
	}
	return path
}

// collectOracle is Collect as it was: one Routes, SuppressedAt and Path per
// (prefix, vantage). Every routed prefix is a group of its own, reported
// by one prefix.
func collectOracle(t *oracleTable, vantages []topo.ASN) *View {
	v := &View{
		asns:  t.asns,
		links: make(map[[2]topo.ASN]bool),
	}
	for _, p := range t.Prefixes() {
		rib := t.Routes(p)
		g := pathGroup{lo: int32(len(v.spans)), prefixes: 1}
		for _, vp := range vantages {
			if t.SuppressedAt(vp, rib) {
				continue
			}
			path := t.Path(vp, p)
			if path == nil {
				continue
			}
			v.spans = append(v.spans, span{int32(len(v.arena)), int32(len(v.arena) + len(path))})
			for _, asn := range path {
				v.arena = append(v.arena, t.idx[asn])
			}
			origin := path[len(path)-1]
			if cur, ok := v.origins.Exact(p); ok {
				if !containsASN(cur, origin) {
					v.origins.Insert(p, append(cur, origin))
				}
			} else {
				v.origins.Insert(p, []topo.ASN{origin})
			}
			for i := 1; i < len(path); i++ {
				v.addLink(path[i-1], path[i])
			}
		}
		if g.hi = int32(len(v.spans)); g.hi > g.lo {
			v.groupOf = append(v.groupOf, int32(len(v.groups)))
			v.groups = append(v.groups, g)
			v.routed = append(v.routed, p)
		}
	}
	sort.Slice(v.routed, func(i, j int) bool { return netx.ComparePrefix(v.routed[i], v.routed[j]) < 0 })
	v.indexNeighbors()
	return v
}

// SplitUnitWeights returns v with every group of n prefixes stored as n
// groups of one prefix each: the same collector output, spelled the long
// way.
func (v *View) SplitUnitWeights() *View {
	out := *v
	out.groups, out.groupOf = nil, make([]int32, len(v.groupOf))
	at := make([]int32, len(v.groups)) // the next unused copy of each group
	for g, pg := range v.groups {
		at[g] = int32(len(out.groups))
		for k := int32(0); k < pg.prefixes; k++ {
			out.groups = append(out.groups, pathGroup{lo: pg.lo, hi: pg.hi, prefixes: 1})
		}
	}
	for i, g := range v.groupOf {
		out.groupOf[i] = at[g]
		at[g]++
	}
	return &out
}

// CollectOracle is the per-prefix collection over a fresh table of n, for
// tests outside the package.
func CollectOracle(n *topo.Network, vantages []topo.ASN) *View {
	return collectOracle(newOracleTable(NewTable(n)), vantages)
}

// OracleProfiles is what the differential tests run over: every built-in
// profile, or tiny and r&e under -short.
func OracleProfiles() []topo.Profile {
	if testing.Short() {
		return []topo.Profile{topo.TinyProfile(), topo.REProfile()}
	}
	return topo.BuiltinProfiles()
}

// ClassAt returns the route class of prefix p at AS asn.
func (t *Table) ClassAt(asn topo.ASN, p netx.Prefix) Class {
	i, ok := t.idx[asn]
	if !ok {
		return ClassNone
	}
	c, _, _ := t.Routes(p).At(i)
	return c
}

// SuppressedAt reports whether vantage asn would report no path for this
// prefix to a collector (its best route crosses a hidden session).
func (t *Table) SuppressedAt(asn topo.ASN, r *PrefixRIB) bool {
	i, ok := t.idx[asn]
	if !ok {
		return true
	}
	return t.suppressed(r, i)
}

// Path returns the canonical AS path from AS from to the origin of p,
// starting with from itself. Returns nil if from has no route.
func (t *Table) Path(from topo.ASN, p netx.Prefix) []topo.ASN {
	i, ok := t.idx[from]
	if !ok {
		return nil
	}
	idx, ok := t.appendPath(nil, t.Routes(p), i)
	if !ok {
		return nil
	}
	path := make([]topo.ASN, len(idx))
	for k, x := range idx {
		path[k] = t.asns[x]
	}
	return path
}
