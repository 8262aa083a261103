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
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
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

// noRoute is the length of a route an AS does not have.
const noRoute = int16(0x7fff)

type edge struct {
	n   int32    // core slot of the neighbor
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
//
// Propagation runs over the transit core only: the ASes with a customer,
// peer or sibling session, plus the host and its hidden neighbors. Every
// other AS is a stub — its only sessions go to providers — so it never
// re-announces another origin's route: its own announcement climbs one
// hop to its providers, and its route to anyone else is read off theirs
// (PrefixRIB.At).
type Table struct {
	Net *topo.Network

	asns     []topo.ASN
	idx      map[topo.ASN]int32
	hostIdx  int32 // dense index of the host
	sessions int   // AS-level sessions, each counted once

	core []int32   // core slot → dense index, ascending
	slot []int32   // dense index → core slot; ^k for the k-th stub
	up   [][]int32 // per stub: the core slots of its providers, ascending

	// Per core slot, and in core slots: sessions to other core ASes,
	// carved from one backing array and grouped as cuts describes.
	adj     [][]edge
	cut     []cuts
	sibASes []int32 // core slots with at least one sibling session
	host    int32   // core slot of the host
	hidden  []bool  // per core slot: a hidden neighbor of the host
	exposed []int32 // core slots a hidden session can block: the host and its hidden neighbors

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

	// Per core slot of the table: the route's class, its length, its
	// canonical next hop (a dense index; -1 at origins and routeless
	// ASes), and a bit set when the route is blocked — learned across a
	// hidden session, so never re-announced. Stubs are derived by At.
	class   []Class
	len     []int16
	next    []int32
	blocked []uint32

	// HostCandidates are all equally-best next-hop ASes at the host
	// network (the multi-exit set hot-potato routing chooses among).
	HostCandidates []topo.ASN

	// HostSuppressed reports that the host's only best routes were learned
	// from hidden (no-export) neighbors, so the host exports nothing.
	HostSuppressed bool

	t        *Table
	origins  []int32        // the atom's origins, dense and ascending
	pinnedOK map[int32]bool // the atom's recv set (nil: announced everywhere)
}

// NewTable builds the routing machinery for net (which must be Built).
func NewTable(net *topo.Network) *Table {
	t := &Table{Net: net, asns: net.ASNs()}
	t.idx = make(map[topo.ASN]int32, len(t.asns))
	for i, asn := range t.asns {
		t.idx[asn] = int32(i)
	}
	t.hostIdx = t.idx[net.HostASN]
	t.buildAdjacency()
	t.buildAtoms()
	return t
}

// buildAdjacency numbers the transit core and lays every core AS's
// sessions with other core ASes out in one array, grouped by what the
// neighbor is to the AS (see cuts). A stub keeps only its providers.
// Neighbors are read where each AS holds them.
func (t *Table) buildAdjacency() {
	t.slot = make([]int32, len(t.asns))
	stubs, total, ups := int32(0), 0, 0
	for i, asn := range t.asns {
		nbrs := t.Net.ASes[asn].Neighbors()
		t.sessions += len(nbrs)
		transit := int32(i) == t.hostIdx || t.Net.HiddenNeighbors[asn]
		for _, nb := range nbrs {
			if _, ok := t.idx[nb.ASN]; ok && nb.Rel != topo.RelProvider && nb.Rel != topo.RelNone {
				transit = true
				break
			}
		}
		if transit {
			t.slot[i] = int32(len(t.core))
			t.core = append(t.core, int32(i))
			total += len(nbrs)
		} else {
			t.slot[i] = ^stubs
			stubs++
			ups += len(nbrs)
		}
	}
	t.sessions /= 2
	edges := make([]edge, 0, total)
	upArena := make([]int32, 0, ups)
	t.up = make([][]int32, stubs)
	t.adj = make([][]edge, len(t.core))
	t.cut = make([]cuts, len(t.core))
	t.hidden = make([]bool, len(t.core))
	for i, s := range t.slot {
		nbrs := t.Net.ASes[t.asns[i]].Neighbors()
		if s < 0 {
			lo := len(upArena)
			for _, nb := range nbrs {
				if j, ok := t.idx[nb.ASN]; ok && nb.Rel == topo.RelProvider {
					upArena = append(upArena, t.slot[j])
				}
			}
			t.up[^s] = upArena[lo:len(upArena):len(upArena)]
			continue
		}
		lo := len(edges)
		var at [4]int32
		for g, rel := range [4]topo.Rel{topo.RelProvider, topo.RelSibling, topo.RelCustomer, topo.RelPeer} {
			at[g] = int32(len(edges) - lo)
			for _, nb := range nbrs {
				if j, ok := t.idx[nb.ASN]; ok && nb.Rel == rel && t.slot[j] >= 0 {
					edges = append(edges, edge{n: t.slot[j], rel: rel})
				}
			}
		}
		t.adj[s] = edges[lo:len(edges):len(edges)]
		t.cut[s] = cuts{sib: at[1], cust: at[2], peer: at[3]}
		if at[2] > at[1] {
			t.sibASes = append(t.sibASes, s)
		}
		if int32(i) == t.hostIdx {
			t.host = s
			t.exposed = append(t.exposed, s)
		} else if t.Net.HiddenNeighbors[t.asns[i]] {
			t.hidden[s] = true
			t.exposed = append(t.exposed, s)
		}
	}
}

// buildAtoms partitions the announced prefixes into announcement atoms,
// numbered by their first prefix in sorted order. An atom is keyed by its
// origins and, for a pinned prefix, the links it is pinned to: unpinned
// single-origin prefixes, nearly all of them, find their atom by origin;
// the rest compare keys with the few atoms of their kind.
func (t *Table) buildAtoms() {
	// Every (prefix, origin) pair, sorted: a prefix's origins are one run,
	// ascending, of the origin array the atoms keep.
	n := 0
	for _, asn := range t.asns {
		n += len(t.Net.ASes[asn].Prefixes)
	}
	po := prefixOrigins{p: make([]netx.Prefix, 0, n), o: make([]int32, 0, n)}
	for i, asn := range t.asns {
		for _, p := range t.Net.ASes[asn].Prefixes {
			po.p = append(po.p, p)
			po.o = append(po.o, int32(i))
		}
	}
	sort.Sort(po)

	// Distinct prefixes are compacted into po.p's front, which t.prefixes
	// keeps; start[k] is where prefix k's origins begin.
	start := make([]int32, 0, n+1)
	for i, p := range po.p {
		if i == 0 || p != po.p[i-1] {
			po.p[len(start)] = p
			start = append(start, int32(i))
			t.lpm.Insert(p, p)
		}
	}
	t.prefixes = po.p[:len(start):len(start)]
	start = append(start, int32(n))

	// The key of an atom other than an unpinned single-origin one: the
	// origin indexes followed, for a pinned prefix, by a marker and the
	// subnets of its links (pinned to no link at all is announced nowhere,
	// which is not unpinned).
	byOrigin := make([]int32, len(t.asns)) // atom+1 of the origin's unpinned prefixes
	type keyed struct{ atom, lo, hi int32 }
	var others []keyed
	var keys []byte
	atomOf := make([]int32, len(t.prefixes))
	atoms := int32(0)
	for k, p := range t.prefixes {
		origins := po.o[start[k]:start[k+1]]
		pinned := t.Net.IsPinned(p)
		if !pinned && len(origins) == 1 {
			if byOrigin[origins[0]] == 0 {
				atoms++
				byOrigin[origins[0]] = atoms
			}
			atomOf[k] = byOrigin[origins[0]] - 1
			continue
		}
		lo := len(keys)
		for _, o := range origins {
			keys = binary.BigEndian.AppendUint32(keys, uint32(o))
		}
		if pinned {
			keys = binary.BigEndian.AppendUint32(keys, ^uint32(0))
			for _, l := range t.Net.PinnedLinksOf(p) {
				keys = binary.BigEndian.AppendUint32(keys, uint32(l.Subnet.Base))
				keys = append(keys, byte(l.Subnet.Len))
			}
		}
		key := keys[lo:]
		atomOf[k] = -1
		for _, o := range others {
			if bytes.Equal(keys[o.lo:o.hi], key) {
				atomOf[k], keys = o.atom, keys[:lo]
				break
			}
		}
		if atomOf[k] < 0 {
			atomOf[k] = atoms
			others = append(others, keyed{atoms, int32(lo), int32(len(keys))})
			atoms++
		}
	}

	t.atomOf = make(map[netx.Prefix]int32, len(t.prefixes))
	t.atoms = make([]atom, atoms)
	for k, p := range t.prefixes {
		a := atomOf[k]
		t.atomOf[p] = a
		if at := &t.atoms[a]; at.origins == nil {
			at.origins = po.o[start[k]:start[k+1]:start[k+1]]
			if t.Net.IsPinned(p) {
				at.recv = t.pinnedRecv(p, at.origins)
			}
		}
	}
	t.ribs = make([]atomic.Pointer[PrefixRIB], len(t.atoms))
}

// prefixOrigins sorts (prefix, origin) pairs held in two slices.
type prefixOrigins struct {
	p []netx.Prefix
	o []int32
}

func (po prefixOrigins) Len() int { return len(po.p) }
func (po prefixOrigins) Less(i, j int) bool {
	if c := netx.ComparePrefix(po.p[i], po.p[j]); c != 0 {
		return c < 0
	}
	return po.o[i] < po.o[j]
}
func (po prefixOrigins) Swap(i, j int) {
	po.p[i], po.p[j] = po.p[j], po.p[i]
	po.o[i], po.o[j] = po.o[j], po.o[i]
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

// newRIB returns a routeless RIB over the table's core slots, its four
// dense slices carved from one pointer-free allocation (next, then len,
// class and the blocked bits, so each starts aligned for its element type).
func (t *Table) newRIB() *PrefixRIB {
	r := &PrefixRIB{t: t}
	n := len(t.core)
	if n == 0 {
		return r
	}
	off := [...]int{n, n + (n+1)/2, n + (n+1)/2 + (n+3)/4}
	buf := make([]int32, off[2]+(n+31)/32)
	r.next = buf[:n:n]
	r.len = unsafe.Slice((*int16)(unsafe.Pointer(&buf[off[0]])), n)
	r.class = unsafe.Slice((*Class)(unsafe.Pointer(&buf[off[1]])), n)
	r.blocked = unsafe.Slice((*uint32)(unsafe.Pointer(&buf[off[2]])), (n+31)/32)
	for i := range r.next {
		r.class[i] = ClassNone
		r.len[i] = noRoute
		r.next[i] = -1
	}
	return r
}

// compute runs the three-phase valley-free propagation for atom a (-1: an
// atom nobody originates) over the transit core.
func (t *Table) compute(a int32) *PrefixRIB {
	r := t.newRIB()
	r.Atom = a
	if a >= 0 {
		r.origins, r.pinnedOK = t.atoms[a].origins, t.atoms[a].recv
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Valley-free propagation: three ordered sweeps suffice (customer
	// routes up, one peer hop across, everything down to customers).
	cone := t.relaxCustomer(r, sc)
	t.relaxPeer(r, cone)
	t.markBlocked(r)
	t.relaxProvider(r, sc)

	t.fillNextHops(r, &sc.cand)
	return r
}

// pinnedAt reports whether core slot x originates a selectively-announced
// atom, whose announcements reach only the neighbors in pinnedOK.
func (r *PrefixRIB) pinnedAt(x int32) bool {
	return r.pinnedOK != nil && r.class[x] == ClassOrigin
}

// isBlocked reports whether core slot x's route is blocked (see markBlocked).
func (r *PrefixRIB) isBlocked(x int32) bool { return r.blocked[x>>5]&(1<<(x&31)) != 0 }

// relaxCustomer seeds the origins and propagates origin/customer routes
// up provider and sibling edges in BFS order of path length. It returns
// the customer cone's core slots — every core AS now holding an origin or
// customer route — which aliases sc.queue.
func (t *Table) relaxCustomer(r *PrefixRIB, sc *scratch) []int32 {
	queue := sc.queue[:0]
	for _, o := range r.origins {
		if s := t.slot[o]; s >= 0 {
			r.class[s] = ClassOrigin
			r.len[s] = 0
			queue = append(queue, s)
		}
	}
	// A stub origin's announcement climbs one hop, to its providers; they
	// join the queue behind the core origins, so it stays in length order.
	for _, o := range r.origins {
		if t.slot[o] >= 0 {
			continue
		}
		for _, p := range t.up[^t.slot[o]] {
			if r.pinnedOK != nil && !r.pinnedOK[t.core[p]] {
				continue
			}
			if ClassCustomer < r.class[p] || (ClassCustomer == r.class[p] && 1 < r.len[p]) {
				r.class[p] = ClassCustomer
				r.len[p] = 1
				queue = append(queue, p)
			}
		}
	}
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		nl, pinned := r.len[x]+1, r.pinnedAt(x)
		for _, e := range t.adj[x][:t.cut[x].cust] {
			if pinned && !r.pinnedOK[t.core[e.n]] {
				continue
			}
			if ClassCustomer < r.class[e.n] || (ClassCustomer == r.class[e.n] && nl < r.len[e.n]) {
				r.class[e.n] = ClassCustomer
				r.len[e.n] = nl
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
		nl, pinned := r.len[x]+1, r.pinnedAt(x)
		for _, e := range t.adj[x][t.cut[x].peer:] {
			if pinned && !r.pinnedOK[t.core[e.n]] {
				continue
			}
			if ClassPeer < r.class[e.n] || (ClassPeer == r.class[e.n] && nl < r.len[e.n]) {
				r.class[e.n] = ClassPeer
				r.len[e.n] = nl
			}
		}
	}
	// Peer routes also cross sibling sessions.
	t.relaxSiblings(r, ClassPeer)
}

// markBlocked sets the blocked bit of every AS whose only best routes
// cross a hidden session (bestViaHiddenSession). The provider sweep
// changes no customer or peer route, so the bits it reads are final.
func (t *Table) markBlocked(r *PrefixRIB) {
	for _, x := range t.exposed {
		if t.bestViaHiddenSession(r, x) {
			r.blocked[x>>5] |= 1 << (x & 31)
			if x == t.host {
				r.HostSuppressed = true
			}
		}
	}
}

// relaxProvider floods any route down provider → customer edges (and
// sibling sessions) in BFS order.
func (t *Table) relaxProvider(r *PrefixRIB, sc *scratch) {
	queue, next := sc.queue[:0], sc.next[:0]
	for x, c := range r.class {
		if c != ClassNone {
			queue = append(queue, int32(x))
		}
	}
	for len(queue) > 0 {
		for _, x := range queue {
			// Routes learned across hidden (no-export) sessions are never
			// re-announced, by either party.
			if r.isBlocked(x) {
				continue
			}
			nl, pinned := r.len[x]+1, r.pinnedAt(x)
			for _, e := range t.adj[x][t.cut[x].sib:t.cut[x].peer] {
				if pinned && !r.pinnedOK[t.core[e.n]] {
					continue
				}
				if ClassProvider < r.class[e.n] || (ClassProvider == r.class[e.n] && nl < r.len[e.n]) {
					r.class[e.n] = ClassProvider
					r.len[e.n] = nl
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
			if r.class[x] != c {
				continue
			}
			nl := r.len[x] + 1
			for _, e := range t.adj[x][t.cut[x].sib:t.cut[x].cust] {
				if c < r.class[e.n] || (c == r.class[e.n] && nl < r.len[e.n]) {
					r.class[e.n] = c
					r.len[e.n] = nl
					changed = true
				}
			}
		}
	}
}

// bestViaHiddenSession reports whether core AS x's only best routes cross
// a hidden (no-export) session with the host: either x is the host and all
// candidates are hidden neighbors, or x is a hidden neighbor and all its
// candidates are the host. Such routes are used for forwarding but never
// re-announced or reported to collectors. Must be called after the peer
// phase. A peer route is heard over a peer or sibling session, which no
// stub has, so x's core sessions are all its candidates.
func (t *Table) bestViaHiddenSession(r *PrefixRIB, x int32) bool {
	atHost := x == t.host
	if r.class[x] != ClassPeer || !(atHost || t.hidden[x]) {
		return false
	}
	found := false
	for _, e := range t.adj[x] {
		if !t.isCandidate(r, x, e) {
			continue
		}
		if atHost && !t.hidden[e.n] || !atHost && e.n != t.host {
			return false
		}
		found = true
	}
	return found
}

// suppressed reports whether AS i (a dense index) reports no path to a
// collector, its best route being blocked. Only core ASes can be.
func (t *Table) suppressed(r *PrefixRIB, i int32) bool {
	s := t.slot[i]
	return s >= 0 && r.isBlocked(s)
}

// scratch is the working memory of one propagation: the candidate buffer
// candidatesAt fills and the BFS frontiers of the relax sweeps. It is
// pooled rather than a Table field because Routes is documented safe for
// concurrent use, so scratch state cannot live on shared structs.
type scratch struct{ cand, queue, next []int32 }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// isCandidate reports whether the core neighbor across session e of core
// AS x provides x's equal-best route.
func (t *Table) isCandidate(r *PrefixRIB, x int32, e edge) bool {
	cN := r.class[e.n]
	if cN == ClassNone || r.pinnedAt(e.n) && !r.pinnedOK[t.core[x]] {
		return false
	}
	return receivedClass(cN, e.rel) == r.class[x] && r.len[e.n]+1 == r.len[x]
}

// heardFromStub reports whether origin o (a dense index) is a stub that
// provides core AS x's equal-best route: x holds a customer route, is one
// of o's providers, and hears o's announcement — which the customer sweep
// seeded at length one, the shortest a customer route can be.
func (t *Table) heardFromStub(r *PrefixRIB, x, o int32) bool {
	if t.slot[o] >= 0 || r.class[x] != ClassCustomer || r.pinnedOK != nil && !r.pinnedOK[t.core[x]] {
		return false
	}
	return slices.Contains(t.up[^t.slot[o]], x)
}

// heardOver returns the core sessions over which AS x can hear a route of
// its own class: the sessions of that class and, siblings being
// transparent, its sibling sessions. A customer route can also come from a
// stub origin (heardFromStub).
func (t *Table) heardOver(r *PrefixRIB, x int32) (own, sib []edge) {
	adj, k := t.adj[x], t.cut[x]
	switch r.class[x] {
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
// equal-best route to core AS x, sorted by neighbor ASN. The result
// aliases *buf and is only valid until the next call with the same
// buffer; growth is written back through buf so callers amortize one
// allocation across a whole propagation.
func (t *Table) candidatesAt(r *PrefixRIB, x int32, buf *[]int32) []int32 {
	if r.class[x] == ClassOrigin || r.class[x] == ClassNone {
		return nil
	}
	own, sib := t.heardOver(r, x)
	out := (*buf)[:0]
	for _, e := range own {
		if t.isCandidate(r, x, e) {
			out = append(out, t.core[e.n])
		}
	}
	for _, o := range r.origins {
		if t.heardFromStub(r, x, o) {
			out = append(out, o)
		}
	}
	for _, e := range sib {
		if t.isCandidate(r, x, e) {
			out = append(out, t.core[e.n])
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

// nextHop returns the canonical next hop of core AS x, its lowest-ASN
// candidate as a dense index, or -1 if no neighbor provides x's route.
// Dense indexes and core slots ascend with ASN (Network.ASNs is sorted),
// and so do every adjacency group (AS.Neighbors is too) and an atom's
// origins, so the answer is the first candidate of the class group, of
// the stub origins or of the sibling group, whichever is lowest: no list,
// no sort.
func (t *Table) nextHop(r *PrefixRIB, x int32) int32 {
	own, sib := t.heardOver(r, x)
	next := int32(-1)
	for _, e := range own {
		if t.isCandidate(r, x, e) {
			next = t.core[e.n]
			break
		}
	}
	for _, o := range r.origins {
		if next >= 0 && o > next {
			break
		}
		if t.heardFromStub(r, x, o) {
			next = o
			break
		}
	}
	for _, e := range sib {
		if next >= 0 && t.core[e.n] > next {
			break
		}
		if t.isCandidate(r, x, e) {
			return t.core[e.n]
		}
	}
	return next
}

// fillNextHops selects canonical next hops and the host candidate set.
// Only the host keeps its whole candidate list (the multi-exit set);
// every other AS needs just the lowest candidate.
func (t *Table) fillNextHops(r *PrefixRIB, buf *[]int32) {
	for x, c := range r.class {
		if c == ClassOrigin || c == ClassNone {
			continue
		}
		next := int32(-1)
		if int32(x) != t.host {
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
			r.class[x] = ClassNone
			r.len[x] = noRoute
			continue
		}
		r.next[x] = next
	}
}

// At returns AS i's route (i a dense index): its class, its length, and
// its canonical next hop (a dense index; -1 at origins and routeless
// ASes). A core AS's route is stored; a stub's is derived from its
// providers, as the provider sweep would have flooded it: the length is
// the shortest over the providers whose route is not blocked and whose
// announcement reaches the stub, and the next hop is the lowest such
// provider at that length, blocked or not, because a blocked provider
// still holds the route.
func (r *PrefixRIB) At(i int32) (Class, int16, int32) {
	t := r.t
	s := t.slot[i]
	if s >= 0 {
		return r.class[s], r.len[s], r.next[s]
	}
	if slices.Contains(r.origins, i) {
		return ClassOrigin, 0, -1
	}
	up := t.up[^s]
	reaches := func(p int32) bool {
		return r.class[p] != ClassNone && !(r.pinnedAt(p) && !r.pinnedOK[i])
	}
	best, next := noRoute, int32(-1)
	for _, p := range up {
		if reaches(p) && !r.isBlocked(p) {
			best = min(best, r.len[p]+1)
		}
	}
	if best == noRoute {
		return ClassNone, noRoute, -1
	}
	for _, p := range up {
		if reaches(p) && r.len[p]+1 == best {
			next = t.core[p]
			break
		}
	}
	return ClassProvider, best, next
}

// appendPath appends to dst the canonical AS path from AS i to r's origin,
// i itself first, as dense indexes. ok is false, and dst returned as it
// came, when i has no route.
func (t *Table) appendPath(dst []int32, r *PrefixRIB, i int32) (_ []int32, ok bool) {
	c, _, next := r.At(i)
	if c == ClassNone {
		return dst, false
	}
	base := len(dst)
	dst = append(dst, i)
	for c != ClassOrigin {
		i = next
		if i < 0 || len(dst)-base > len(t.asns) {
			return dst[:base], false
		}
		dst = append(dst, i)
		c, _, next = r.At(i)
	}
	return dst, true
}
