// Package bgp computes interdomain routes over a synthetic topology using
// standard Gao–Rexford (valley-free) policies, and derives the "public BGP
// view" bdrmap consumes: routed prefixes, prefix→origin mappings, and AS
// paths observed by a route collector with a limited set of vantage points.
//
// Route preference follows operational practice: customer-learned routes
// over peer-learned over provider-learned, then shortest AS path, then
// lowest next-hop ASN. Sibling sessions are transparent: routes cross them
// without changing class. Routes the host network learns from hidden
// neighbors (IXP route-server peerings) carry no-export and are used for
// forwarding but never re-announced, which is why such interconnections are
// only discoverable by traceroute (the "trace" column of Table 1).
package bgp

import (
	"encoding/binary"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// Class is the preference class of a route, ordered best (lowest) first.
type Class int8

// Route classes.
const (
	ClassOrigin   Class = 0 // this AS originates the prefix
	ClassCustomer Class = 1 // learned from a customer
	ClassPeer     Class = 2 // learned from a peer
	ClassProvider Class = 3 // learned from a provider
	ClassNone     Class = 4 // no route
)

func (c Class) String() string {
	switch c {
	case ClassOrigin:
		return "origin"
	case ClassCustomer:
		return "customer"
	case ClassPeer:
		return "peer"
	case ClassProvider:
		return "provider"
	default:
		return "none"
	}
}

type edge struct {
	n   int32    // dense index of the neighbor
	rel topo.Rel // what the neighbor is to this AS (RelCustomer: neighbor is my customer)
}

// cuts splits one AS's adjacency list, which is grouped providers,
// siblings, customers, peers, so each relax sweep walks only the sessions
// it can cross: routes climb adj[:cust] (providers and siblings), flood
// down adj[sib:peer] (siblings and customers) and cross adj[peer:].
type cuts struct{ sib, cust, peer int32 }

// atom is one announcement atom: the prefixes originated by the same set
// of ASes and announced over the same set of pinned links. Propagation
// sees nothing else of a prefix, so an atom's prefixes share one RIB.
type atom struct {
	origins []int32 // dense origin indexes, ascending
	// recv lists, for a selectively-announced atom (§6), the neighbors of
	// the origin that hear the announcement: the ASes on the far side of
	// the pinned links. nil means announced everywhere.
	recv map[int32]bool
}

// Table computes and caches per-atom routing state for every AS.
// It is safe for concurrent use.
type Table struct {
	Net *topo.Network

	asns    []topo.ASN
	idx     map[topo.ASN]int32
	adj     [][]edge // per AS, carved from one backing array, grouped as cuts describes
	cut     []cuts
	sibASes []int32 // ASes with at least one sibling session
	hostIdx int32
	hidden  []bool // dense: AS is a hidden neighbor of the host

	prefixes []netx.Prefix
	lpm      netx.Trie[netx.Prefix] // addr → announced prefix
	atomOf   map[netx.Prefix]int32
	atoms    []atom
	ribs     []atomic.Pointer[PrefixRIB] // per atom; nil until first asked for
}

// PrefixRIB is the routing state of one announcement atom across all ASes.
// It is shared by every prefix of the atom and by every caller of Routes:
// nobody may modify it once Routes has returned it.
type PrefixRIB struct {
	// Atom numbers the announcement atom in its table; -1 for the routeless
	// RIB of a prefix nobody announces.
	Atom int32

	// Dense per-AS state (indexed like Table.asns).
	Class []Class
	Len   []int16
	Next  []int32 // canonical next-hop index; -1 at origins and routeless ASes

	// HostCandidates are all equally-best next-hop ASes at the host
	// network (the multi-exit set hot-potato routing chooses among).
	HostCandidates []topo.ASN

	// HostSuppressed reports that the host's only best routes were learned
	// from hidden (no-export) neighbors, so the host exports nothing.
	HostSuppressed bool

	// pinnedOK is the atom's recv set (nil: announced everywhere).
	pinnedOK map[int32]bool
}

// NewTable builds the routing machinery for net (which must be Built).
func NewTable(net *topo.Network) *Table {
	t := &Table{
		Net: net,
		idx: make(map[topo.ASN]int32),
	}
	t.asns = net.ASNs()
	for i, asn := range t.asns {
		t.idx[asn] = int32(i)
	}
	t.hostIdx = t.idx[net.HostASN]
	t.hidden = make([]bool, len(t.asns))
	for asn := range net.HiddenNeighbors {
		if i, ok := t.idx[asn]; ok {
			t.hidden[i] = true
		}
	}
	t.buildAdjacency()
	t.buildAtoms()
	return t
}

// buildAdjacency lays every AS's sessions out in one array, grouped by
// what the neighbor is to the AS (see cuts).
func (t *Table) buildAdjacency() {
	nbrs := make([][]topo.ASNeighbor, len(t.asns))
	total := 0
	for i, asn := range t.asns {
		nbrs[i] = t.Net.ASes[asn].Neighbors()
		total += len(nbrs[i])
	}
	edges := make([]edge, 0, total)
	t.adj = make([][]edge, len(t.asns))
	t.cut = make([]cuts, len(t.asns))
	for i := range t.asns {
		lo := len(edges)
		var at [4]int32
		for g, rel := range [4]topo.Rel{topo.RelProvider, topo.RelSibling, topo.RelCustomer, topo.RelPeer} {
			at[g] = int32(len(edges) - lo)
			for _, nb := range nbrs[i] {
				if j, ok := t.idx[nb.ASN]; ok && nb.Rel == rel {
					edges = append(edges, edge{n: j, rel: rel})
				}
			}
		}
		t.adj[i] = edges[lo:len(edges):len(edges)]
		t.cut[i] = cuts{sib: at[1], cust: at[2], peer: at[3]}
		if at[2] > at[1] {
			t.sibASes = append(t.sibASes, int32(i))
		}
	}
}

// buildAtoms partitions the announced prefixes into announcement atoms,
// numbered by their first prefix in sorted order.
func (t *Table) buildAtoms() {
	originsOf := make(map[netx.Prefix][]int32)
	for i, asn := range t.asns {
		for _, p := range t.Net.ASes[asn].Prefixes {
			if _, seen := originsOf[p]; !seen {
				t.prefixes = append(t.prefixes, p)
				t.lpm.Insert(p, p)
			}
			originsOf[p] = append(originsOf[p], int32(i))
		}
	}
	sort.Slice(t.prefixes, func(a, b int) bool { return netx.ComparePrefix(t.prefixes[a], t.prefixes[b]) < 0 })

	// The key is the origin indexes followed, for a pinned prefix, by a
	// marker and the subnets of its links: pinned to no link at all is
	// announced nowhere, which is not unpinned.
	t.atomOf = make(map[netx.Prefix]int32, len(t.prefixes))
	byKey := make(map[string]int32)
	var key []byte
	for _, p := range t.prefixes {
		origins := originsOf[p]
		key = key[:0]
		for _, o := range origins {
			key = binary.BigEndian.AppendUint32(key, uint32(o))
		}
		pinned := t.Net.IsPinned(p)
		if pinned {
			key = binary.BigEndian.AppendUint32(key, ^uint32(0))
			for _, l := range t.Net.PinnedLinksOf(p) {
				key = binary.BigEndian.AppendUint32(key, uint32(l.Subnet.Base))
				key = append(key, byte(l.Subnet.Len))
			}
		}
		a, ok := byKey[string(key)]
		if !ok {
			a = int32(len(t.atoms))
			byKey[string(key)] = a
			at := atom{origins: origins}
			if pinned {
				at.recv = t.pinnedRecv(p, origins)
			}
			t.atoms = append(t.atoms, at)
		}
		t.atomOf[p] = a
	}
	t.ribs = make([]atomic.Pointer[PrefixRIB], len(t.atoms))
}

// pinnedRecv computes, for a selectively-announced prefix (§6), which
// neighbors of its origins actually hear the announcement: only the ASes
// on the far side of the links the prefix is pinned to.
func (t *Table) pinnedRecv(p netx.Prefix, origins []int32) map[int32]bool {
	recv := make(map[int32]bool)
	for _, o := range origins {
		for _, att := range t.Net.Attachments(t.asns[o]) {
			if t.Net.AnnouncedOnLink(p, att.Link) {
				if i, ok := t.idx[att.Remote]; ok {
					recv[i] = true
				}
			}
		}
	}
	return recv
}

// Prefixes returns every announced prefix, sorted.
func (t *Table) Prefixes() []netx.Prefix { return t.prefixes }

// Lookup returns the longest announced prefix containing addr.
func (t *Table) Lookup(addr netx.Addr) (netx.Prefix, bool) {
	p, ok := t.lpm.Lookup(addr)
	return p, ok
}

// Origins returns the ground-truth origin ASes of an announced prefix.
func (t *Table) Origins(p netx.Prefix) []topo.ASN {
	idxs := t.OriginIndexes(p)
	out := make([]topo.ASN, len(idxs))
	for i, j := range idxs {
		out[i] = t.asns[j]
	}
	return out
}

// IsOrigin reports whether asn originates p, without materializing the
// origin set the way Origins does — the forwarding hot path asks this per
// candidate attachment.
func (t *Table) IsOrigin(p netx.Prefix, asn topo.ASN) bool {
	for _, j := range t.OriginIndexes(p) {
		if t.asns[j] == asn {
			return true
		}
	}
	return false
}

// OriginIndexes returns the dense AS indexes originating p. The slice is
// shared with the table and must not be mutated; convert entries with ASOf.
func (t *Table) OriginIndexes(p netx.Prefix) []int32 {
	if a, ok := t.atomOf[p]; ok {
		return t.atoms[a].origins
	}
	return nil
}

// ASOf converts a dense index back to an ASN.
func (t *Table) ASOf(i int32) topo.ASN { return t.asns[i] }

// IndexOf converts an ASN to its dense index (-1 if unknown).
func (t *Table) IndexOf(asn topo.ASN) int32 {
	if i, ok := t.idx[asn]; ok {
		return i
	}
	return -1
}

// Atoms returns the number of announcement atoms the prefixes fall into.
func (t *Table) Atoms() int { return len(t.atoms) }

// Routes returns (computing and caching on first use) the RIB of prefix
// p's atom. p must be an announced prefix (as returned by Lookup or
// Prefixes). The RIB is shared: see PrefixRIB.
func (t *Table) Routes(p netx.Prefix) *PrefixRIB {
	a, ok := t.atomOf[p]
	if !ok {
		return t.compute(-1) // nobody announces p: no AS has a route
	}
	return t.atomRoutes(a)
}

// atomRoutes returns atom a's RIB. When two goroutines miss together both
// compute, and the first stored RIB wins, so every caller holds the same
// pointer for one atom.
func (t *Table) atomRoutes(a int32) *PrefixRIB {
	slot := &t.ribs[a]
	if r := slot.Load(); r != nil {
		return r
	}
	r := t.compute(a)
	if !slot.CompareAndSwap(nil, r) {
		r = slot.Load()
	}
	return r
}

// computeAll fills the RIB of every atom still without one, from one
// worker per core pulling atom indexes off a shared counter. atomRoutes
// makes the first stored RIB win, so concurrent Routes callers and the
// workers agree on one RIB per atom; with a single core the loop runs on
// the calling goroutine.
func (t *Table) computeAll() {
	var next atomic.Int32
	work := func() {
		for a := next.Add(1) - 1; int(a) < len(t.atoms); a = next.Add(1) - 1 {
			t.atomRoutes(a)
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(t.atoms)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// receivedClass returns the class X obtains for a route exported by
// neighbor N (whose own class is cN), where rel states what N is to X.
// ClassNone means N does not export the route to X.
func receivedClass(cN Class, rel topo.Rel) Class {
	switch rel {
	case topo.RelCustomer: // N is X's customer: N exports only its customer cone
		if cN <= ClassCustomer {
			return ClassCustomer
		}
	case topo.RelPeer: // peers export only customer-cone routes
		if cN <= ClassCustomer {
			return ClassPeer
		}
	case topo.RelProvider: // providers export everything
		if cN <= ClassProvider {
			return ClassProvider
		}
	case topo.RelSibling: // siblings are transparent
		if cN <= ClassProvider {
			if cN == ClassOrigin {
				return ClassCustomer
			}
			return cN
		}
	}
	return ClassNone
}

// newRIB returns a routeless RIB for n ASes, its three dense slices carved
// from one pointer-free allocation (Next, then Len, then Class, so each
// starts aligned for its element type).
func newRIB(n int) *PrefixRIB {
	if n == 0 {
		return &PrefixRIB{}
	}
	buf := make([]int32, n+(n+1)/2+(n+3)/4)
	r := &PrefixRIB{
		Next:  buf[:n:n],
		Len:   unsafe.Slice((*int16)(unsafe.Pointer(&buf[n])), n),
		Class: unsafe.Slice((*Class)(unsafe.Pointer(&buf[n+(n+1)/2])), n),
	}
	for i := range r.Next {
		r.Class[i] = ClassNone
		r.Len[i] = int16(0x7fff)
		r.Next[i] = -1
	}
	return r
}

// compute runs the three-phase valley-free propagation for atom a (-1: an
// atom nobody originates).
func (t *Table) compute(a int32) *PrefixRIB {
	r := newRIB(len(t.asns))
	r.Atom = a
	var origins []int32
	if a >= 0 {
		origins, r.pinnedOK = t.atoms[a].origins, t.atoms[a].recv
	}
	for _, o := range origins {
		r.Class[o] = ClassOrigin
		r.Len[o] = 0
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Valley-free propagation: three ordered sweeps suffice (customer
	// routes up, one peer hop across, everything down to customers).
	cone := t.relaxCustomer(r, origins, sc)
	t.relaxPeer(r, cone)
	t.relaxProvider(r, sc)

	t.fillNextHops(r, &sc.cand)
	return r
}

// exportAllowed gates the origin's direct announcements for pinned
// prefixes: x (an origin) exports to recv only over pinned links.
func (r *PrefixRIB) exportAllowed(x, recv int32) bool {
	if r.pinnedOK == nil || r.Class[x] != ClassOrigin {
		return true
	}
	return r.pinnedOK[recv]
}

// relaxCustomer propagates origin/customer routes up provider and sibling
// edges in BFS order of path length. It returns the customer cone — every
// AS now holding an origin or customer route — which aliases sc.queue.
func (t *Table) relaxCustomer(r *PrefixRIB, origins []int32, sc *scratch) []int32 {
	queue := append(sc.queue[:0], origins...)
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		nl := r.Len[x] + 1
		for _, e := range t.adj[x][:t.cut[x].cust] {
			if !r.exportAllowed(x, e.n) {
				continue
			}
			if ClassCustomer < r.Class[e.n] || (ClassCustomer == r.Class[e.n] && nl < r.Len[e.n]) {
				r.Class[e.n] = ClassCustomer
				r.Len[e.n] = nl
				queue = append(queue, e.n)
			}
		}
	}
	sc.queue = queue
	return queue
}

// relaxPeer hands the cone's routes across a single peer edge. Updating in
// place is safe: only ASes outside the cone (class peer or worse) change,
// and only cone members are read.
func (t *Table) relaxPeer(r *PrefixRIB, cone []int32) {
	for _, x := range cone {
		nl := r.Len[x] + 1
		for _, e := range t.adj[x][t.cut[x].peer:] {
			if !r.exportAllowed(x, e.n) {
				continue
			}
			if ClassPeer < r.Class[e.n] || (ClassPeer == r.Class[e.n] && nl < r.Len[e.n]) {
				r.Class[e.n] = ClassPeer
				r.Len[e.n] = nl
			}
		}
	}
	// Peer routes also cross sibling sessions.
	t.relaxSiblings(r, ClassPeer)
}

// relaxProvider floods any route down provider → customer edges (and
// sibling sessions) in BFS order.
func (t *Table) relaxProvider(r *PrefixRIB, sc *scratch) {
	queue, next := sc.queue[:0], sc.next[:0]
	for x, c := range r.Class {
		if c != ClassNone {
			queue = append(queue, int32(x))
		}
	}
	for len(queue) > 0 {
		for _, x := range queue {
			// Routes learned across hidden (no-export) sessions are never
			// re-announced, by either party.
			if t.bestViaHiddenSession(r, x) {
				continue
			}
			nl := r.Len[x] + 1
			for _, e := range t.adj[x][t.cut[x].sib:t.cut[x].peer] {
				if !r.exportAllowed(x, e.n) {
					continue
				}
				if ClassProvider < r.Class[e.n] || (ClassProvider == r.Class[e.n] && nl < r.Len[e.n]) {
					r.Class[e.n] = ClassProvider
					r.Len[e.n] = nl
					next = append(next, e.n)
				}
			}
		}
		queue, next = next, queue[:0]
	}
	sc.queue, sc.next = queue, next
}

// relaxSiblings propagates routes of exactly class c across sibling edges.
func (t *Table) relaxSiblings(r *PrefixRIB, c Class) {
	changed := true
	for changed {
		changed = false
		for _, x := range t.sibASes {
			if r.Class[x] != c {
				continue
			}
			nl := r.Len[x] + 1
			for _, e := range t.adj[x][t.cut[x].sib:t.cut[x].cust] {
				if c < r.Class[e.n] || (c == r.Class[e.n] && nl < r.Len[e.n]) {
					r.Class[e.n] = c
					r.Len[e.n] = nl
					changed = true
				}
			}
		}
	}
}

// bestViaHiddenSession reports whether AS x's only best routes cross a
// hidden (no-export) session with the host: either x is the host and all
// candidates are hidden neighbors, or x is a hidden neighbor and all its
// candidates are the host. Such routes are used for forwarding but never
// re-announced or reported to collectors. Must be called after the peer
// phase.
func (t *Table) bestViaHiddenSession(r *PrefixRIB, x int32) bool {
	atHost := x == t.hostIdx
	if r.Class[x] != ClassPeer || !(atHost || t.hidden[x]) {
		return false
	}
	found := false
	for _, e := range t.adj[x] {
		if !t.isCandidate(r, x, e) {
			continue
		}
		if atHost && !t.hidden[e.n] || !atHost && e.n != t.hostIdx {
			return false
		}
		found = true
	}
	return found
}

// scratch is the working memory of one propagation: the candidate buffer
// candidatesAt fills and the BFS frontiers of the relax sweeps. It is
// pooled rather than a Table field because Routes is documented safe for
// concurrent use, so scratch state cannot live on shared structs.
type scratch struct{ cand, queue, next []int32 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// isCandidate reports whether the neighbor across session e of AS x
// provides x's equal-best route.
func (t *Table) isCandidate(r *PrefixRIB, x int32, e edge) bool {
	cN := r.Class[e.n]
	if cN == ClassNone || !r.exportAllowed(e.n, x) {
		return false
	}
	return receivedClass(cN, e.rel) == r.Class[x] && r.Len[e.n]+1 == r.Len[x]
}

// heardOver returns the sessions over which AS x can hear a route of its
// own class: the sessions of that class and, siblings being transparent,
// its sibling sessions.
func (t *Table) heardOver(r *PrefixRIB, x int32) (own, sib []edge) {
	adj, k := t.adj[x], t.cut[x]
	switch r.Class[x] {
	case ClassCustomer:
		own = adj[k.cust:k.peer]
	case ClassPeer:
		own = adj[k.peer:]
	case ClassProvider:
		own = adj[:k.sib]
	}
	return own, adj[k.sib:k.cust]
}

// candidatesAt lists the dense indexes of all neighbors providing the
// equal-best route to AS x, sorted by neighbor ASN. The result aliases
// *buf and is only valid until the next call with the same buffer; growth
// is written back through buf so callers amortize one allocation across a
// whole propagation.
func (t *Table) candidatesAt(r *PrefixRIB, x int32, buf *[]int32) []int32 {
	if r.Class[x] == ClassOrigin || r.Class[x] == ClassNone {
		return nil
	}
	own, sib := t.heardOver(r, x)
	out := (*buf)[:0]
	for _, e := range own {
		if t.isCandidate(r, x, e) {
			out = append(out, e.n)
		}
	}
	for _, e := range sib {
		if t.isCandidate(r, x, e) {
			out = append(out, e.n)
		}
	}
	if cap(out) != cap(*buf) {
		*buf = out
	}
	// Candidate sets are tiny (the equal-best neighbors of one AS);
	// insertion sort avoids sort.Slice's closure and interface allocations.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && t.asns[out[j]] < t.asns[out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// nextHop returns the canonical next hop of AS x, its lowest-ASN candidate,
// or -1 if no neighbor provides x's route. Dense indexes ascend with ASN
// (Network.ASNs is sorted) and every adjacency group lists its neighbors
// in that order (AS.Neighbors is too), so the answer is the first candidate
// of the class group or the first of the sibling group, whichever is
// lower: no list, no sort.
func (t *Table) nextHop(r *PrefixRIB, x int32) int32 {
	own, sib := t.heardOver(r, x)
	next := int32(-1)
	for _, e := range own {
		if t.isCandidate(r, x, e) {
			next = e.n
			break
		}
	}
	for _, e := range sib {
		if next >= 0 && e.n > next {
			break
		}
		if t.isCandidate(r, x, e) {
			return e.n
		}
	}
	return next
}

// fillNextHops selects canonical next hops and the host candidate set.
// Only the host keeps its whole candidate list (the multi-exit set);
// every other AS needs just the lowest candidate.
func (t *Table) fillNextHops(r *PrefixRIB, buf *[]int32) {
	for x := range t.adj {
		if r.Class[x] == ClassOrigin || r.Class[x] == ClassNone {
			continue
		}
		next := int32(-1)
		if int32(x) != t.hostIdx {
			next = t.nextHop(r, int32(x))
		} else if cands := t.candidatesAt(r, int32(x), buf); len(cands) > 0 {
			next = cands[0]
			for _, c := range cands {
				r.HostCandidates = append(r.HostCandidates, t.asns[c])
			}
		}
		if next < 0 {
			// No neighbor can justify the route (should not happen in a
			// consistent propagation); drop it defensively.
			r.Class[x] = ClassNone
			r.Len[x] = 0x7fff
			continue
		}
		r.Next[x] = next
	}
	r.HostSuppressed = t.bestViaHiddenSession(r, t.hostIdx)
}

// appendPath appends to dst the canonical AS path from AS i to r's origin,
// i itself first. ok is false, and dst returned as it came, when i has no
// route.
func (t *Table) appendPath(dst []topo.ASN, r *PrefixRIB, i int32) (_ []topo.ASN, ok bool) {
	if r.Class[i] == ClassNone {
		return dst, false
	}
	base := len(dst)
	dst = append(dst, t.asns[i])
	for r.Class[i] != ClassOrigin {
		i = r.Next[i]
		if i < 0 || len(dst)-base > len(t.asns) {
			return dst[:base], false
		}
		dst = append(dst, t.asns[i])
	}
	return dst, true
}
