package bgp

import (
	"slices"
	"sort"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// ASPath is one path observed at a route collector: the announcing vantage
// first, the origin last.
type ASPath struct {
	Prefix netx.Prefix
	Path   []topo.ASN
}

// View is the public BGP view assembled from route-collector sessions with
// a limited set of vantage ASes — the stand-in for Route Views / RIPE RIS
// snapshots (§5.2). bdrmap consumes only this view, never ground truth.
//
// Prefixes announced alike report the same paths, so the view stores each
// distinct path once, with the number of routed prefixes reporting it, and
// stores it as the table's dense AS indexes: EachPath walks that form
// (relationship inference weighs a path by its prefix count and indexes
// its tables by AS), Paths expands it to one entry per (prefix, vantage)
// in ASNs for whoever wants the collectors' own shape. A view is
// read-only once built.
type View struct {
	asns    []topo.ASN  // dense index → ASN: the table's numbering
	arena   []int32     // every distinct path, end to end, as dense indexes
	spans   []span      // one per path, grouped
	groups  []pathGroup // sets of prefixes reporting the same paths
	groupOf []int32     // parallel to routed: the prefix's group

	origins netx.Trie[[]topo.ASN] // announced prefix → observed origin set
	links   map[[2]topo.ASN]bool  // adjacency set from observed paths
	routed  []netx.Prefix

	// The links again, as neighbor lists on the dense numbering: AS i's
	// neighbors are nbr[nbrOff[i]:nbrOff[i+1]], ascending.
	nbrOff []int32
	nbr    []topo.ASN
}

// span is one path: arena[lo:hi].
type span struct{ lo, hi int32 }

// pathGroup is the paths spans[lo:hi], one per reporting vantage in
// vantage order, and how many routed prefixes report them.
type pathGroup struct {
	lo, hi   int32
	prefixes int32
}

// DefaultVantages mirrors the real collectors' peer sets: every transit-ish
// network (Tier-1s and transit providers), the host network itself, and a
// handful of its customers.
func DefaultVantages(net *topo.Network) []topo.ASN {
	var vps []topo.ASN
	for _, asn := range net.ASNs() {
		a := net.ASes[asn]
		if net.HiddenNeighbors[asn] {
			continue // route-server peers do not feed collectors
		}
		if a.Tier == topo.TierTier1 || a.Tier == topo.TierTransit {
			vps = append(vps, asn)
		}
	}
	vps = append(vps, net.HostASN)
	// Up to three customer vantages.
	n := 0
	host := net.ASes[net.HostASN]
	for _, nb := range host.Neighbors() {
		if nb.Rel == topo.RelCustomer && n < 3 {
			vps = append(vps, nb.ASN)
			n++
		}
	}
	sort.Slice(vps, func(i, j int) bool { return vps[i] < vps[j] })
	// Deduplicate (transit customers may already be present).
	out := vps[:0]
	var last topo.ASN
	for i, v := range vps {
		if i == 0 || v != last {
			out = append(out, v)
		}
		last = v
	}
	return out
}

// Collect assembles the public view from the given vantages. Routing is
// asked once per announcement atom — the atoms' RIBs are computed first, on
// every core — and each atom's paths are stored once for all its prefixes,
// whose origin sets share storage too. What follows the RIBs is a
// sequential fold in atom order, so the view does not depend on the number
// of cores.
func Collect(t *Table, vantages []topo.ASN) *View {
	t.computeAll()
	v := &View{
		asns: t.asns,
		// Every observed link is an AS-level session.
		links: make(map[[2]topo.ASN]bool, t.sessions),
		// One group per atom, paths in one arena averaging under four ASes.
		spans:   make([]span, 0, len(t.atoms)*len(vantages)),
		arena:   make([]int32, 0, 4*len(t.atoms)*len(vantages)),
		groups:  make([]pathGroup, len(t.atoms)),
		routed:  make([]netx.Prefix, 0, len(t.prefixes)),
		groupOf: make([]int32, 0, len(t.prefixes)),
	}
	vidx := make([]int32, len(vantages))
	for k, vp := range vantages {
		vidx[k] = t.IndexOf(vp)
	}

	// Atom a's observed origins are origins[oOff[a]:oOff[a+1]]: each is one
	// of the atom's origins, so the atoms' origin counts bound the array.
	n := 0
	for _, at := range t.atoms {
		n += len(at.origins)
	}
	origins := make([]topo.ASN, 0, n)
	oOff := make([]int32, len(t.atoms)+1)
	walked := make([]int32, len(t.asns)) // atom+1 whose reported paths last crossed the AS
	for a := range t.atoms {
		rib := t.atomRoutes(int32(a))
		v.groups[a].lo = int32(len(v.spans))
		for _, i := range vidx {
			if i < 0 || t.suppressed(rib, i) {
				continue
			}
			lo := len(v.arena)
			var ok bool
			if v.arena, ok = t.appendPath(v.arena, rib, i); !ok {
				continue
			}
			v.spans = append(v.spans, span{int32(lo), int32(len(v.arena))})
			if o := t.asns[v.arena[len(v.arena)-1]]; !containsASN(origins[oOff[a]:], o) {
				origins = append(origins, o)
			}
			// An atom's paths merge like a tree, so a walk adds links only
			// until it joins one an earlier vantage reported.
			for x := i; walked[x] != int32(a)+1; {
				c, _, next := rib.At(x)
				if c == ClassOrigin {
					break
				}
				walked[x] = int32(a) + 1
				v.addLink(t.asns[x], t.asns[next])
				x = next
			}
		}
		v.groups[a].hi = int32(len(v.spans))
		oOff[a+1] = int32(len(origins))
	}

	for _, p := range t.prefixes { // sorted, so routed comes out sorted
		a := t.atomOf[p]
		g := &v.groups[a]
		if g.lo == g.hi {
			continue
		}
		g.prefixes++
		v.origins.Insert(p, origins[oOff[a]:oOff[a+1]:oOff[a+1]])
		v.routed = append(v.routed, p)
		v.groupOf = append(v.groupOf, a)
	}
	v.indexNeighbors()
	return v
}

// indexNeighbors lays the links out as neighbor lists, each sorted.
func (v *View) indexNeighbors() {
	dense := func(a topo.ASN) int32 {
		i, _ := slices.BinarySearch(v.asns, a)
		return int32(i)
	}
	// off[i] counts AS i's neighbors, then marks the end of its list, which
	// filling the list from its end brings back to the start.
	off := make([]int32, len(v.asns)+1)
	for k := range v.links {
		off[dense(k[0])]++
		off[dense(k[1])]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	nbr := make([]topo.ASN, 2*len(v.links))
	for k := range v.links {
		a, b := dense(k[0]), dense(k[1])
		off[a]--
		nbr[off[a]] = k[1]
		off[b]--
		nbr[off[b]] = k[0]
	}
	for i := range v.asns {
		slices.Sort(nbr[off[i]:off[i+1]])
	}
	v.nbrOff, v.nbr = off, nbr
}

// EachPath calls fn once per distinct observed path — the announcing
// vantage first, the origin last, no AS twice in a row — as dense AS
// indexes (ASNs maps them back), with the number of routed prefixes
// reporting it. The path is the view's own storage: fn must not modify or
// append to it.
func (v *View) EachPath(fn func(path []int32, prefixes int)) {
	for _, g := range v.groups {
		for _, s := range v.spans[g.lo:g.hi] {
			fn(v.arena[s.lo:s.hi:s.hi], int(g.prefixes))
		}
	}
}

// ASNs returns the numbering EachPath's paths are written in: index i is
// AS asns[i]. It is the table's, sorted, so indexes order as their ASNs
// do. The slice is shared and read-only.
func (v *View) ASNs() []topo.ASN { return v.asns }

// Paths expands the view to what the collectors report: one entry per
// (routed prefix, reporting vantage), prefixes sorted, vantages in order.
// The slice is built on each call, and its Path slices, shared by the
// prefixes of a group, with it.
func (v *View) Paths() []ASPath {
	total := 0
	for _, g := range v.groups {
		total += int(g.prefixes) * int(g.hi-g.lo)
	}
	arena := make([]topo.ASN, len(v.arena))
	for k, i := range v.arena {
		arena[k] = v.asns[i]
	}
	out := make([]ASPath, 0, total)
	for i, p := range v.routed {
		g := v.groups[v.groupOf[i]]
		for _, s := range v.spans[g.lo:g.hi] {
			out = append(out, ASPath{Prefix: p, Path: arena[s.lo:s.hi:s.hi]})
		}
	}
	return out
}

func containsASN(s []topo.ASN, a topo.ASN) bool {
	for _, x := range s {
		if x == a {
			return true
		}
	}
	return false
}

func (v *View) addLink(a, b topo.ASN) {
	if a == b {
		return
	}
	k := [2]topo.ASN{a, b}
	if a > b {
		k = [2]topo.ASN{b, a}
	}
	v.links[k] = true
}

// RoutedPrefixes returns every prefix with at least one observed path,
// sorted. This is the probing target list of §5.3.
func (v *View) RoutedPrefixes() []netx.Prefix { return v.routed }

// Origins returns the observed origin ASes of the longest observed prefix
// containing addr, plus that prefix. ok is false if addr is unrouted in
// the public view.
func (v *View) Origins(addr netx.Addr) ([]topo.ASN, netx.Prefix, bool) {
	o, p, ok := v.origins.LookupPrefix(addr)
	return o, p, ok
}

// OriginsExact returns the observed origins of exactly prefix p.
func (v *View) OriginsExact(p netx.Prefix) []topo.ASN {
	o, _ := v.origins.Exact(p)
	return o
}

// HasLink reports whether the AS link a–b appears in any observed path.
func (v *View) HasLink(a, b topo.ASN) bool {
	k := [2]topo.ASN{a, b}
	if a > b {
		k = [2]topo.ASN{b, a}
	}
	return v.links[k]
}

// NeighborsOf returns the ASes adjacent to asn in observed paths, sorted.
// The slice is shared and read-only.
func (v *View) NeighborsOf(asn topo.ASN) []topo.ASN {
	i, ok := slices.BinarySearch(v.asns, asn)
	if !ok || v.nbrOff[i] == v.nbrOff[i+1] {
		return nil
	}
	return v.nbr[v.nbrOff[i]:v.nbrOff[i+1]:v.nbrOff[i+1]]
}

// Adjacency returns NeighborsOf for every AS at once, on the dense
// numbering: AS i's neighbors are nbr[off[i]:off[i+1]], ascending. Both
// slices are shared and read-only.
func (v *View) Adjacency() (off []int32, nbr []topo.ASN) { return v.nbrOff, v.nbr }
