package bgp

import (
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
type View struct {
	Vantages []topo.ASN
	Paths    []ASPath

	origins netx.Trie[[]topo.ASN] // announced prefix → observed origin set
	links   map[[2]topo.ASN]bool  // adjacency set from observed paths
	nbrs    map[topo.ASN][]topo.ASN
	routed  []netx.Prefix
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
// asked once per announcement atom: every prefix of an atom reports the
// atom's paths, so the ASPath.Path slices (and the origin sets) of such
// prefixes share storage and are read-only.
func Collect(t *Table, vantages []topo.ASN) *View {
	v := &View{
		Vantages: vantages,
		links:    make(map[[2]topo.ASN]bool),
		nbrs:     make(map[topo.ASN][]topo.ASN),
	}
	vidx := make([]int32, len(vantages))
	for k, vp := range vantages {
		vidx[k] = t.IndexOf(vp)
	}

	// Per atom: the path of each reporting vantage, in vantage order, as
	// spans of one arena (sliced only once it has stopped growing).
	type span struct{ lo, hi int32 }
	var (
		spans   = make([]span, 0, len(t.atoms)*len(vantages))
		arena   = make([]topo.ASN, 0, 4*cap(spans)) // paths average under four ASes
		first   = make([]int32, len(t.atoms)+1)     // atom a owns spans[first[a]:first[a+1]]
		origins = make([][]topo.ASN, len(t.atoms))
	)
	for a := range t.atoms {
		rib := t.atomRoutes(int32(a))
		first[a] = int32(len(spans))
		for _, i := range vidx {
			if i < 0 || t.bestViaHiddenSession(rib, i) {
				continue
			}
			lo := len(arena)
			var ok bool
			if arena, ok = t.appendPath(arena, rib, i); !ok {
				continue
			}
			spans = append(spans, span{int32(lo), int32(len(arena))})
			path := arena[lo:]
			if o := path[len(path)-1]; !containsASN(origins[a], o) {
				origins[a] = append(origins[a], o)
			}
			for k := 1; k < len(path); k++ {
				v.addLink(path[k-1], path[k])
			}
		}
	}
	first[len(t.atoms)] = int32(len(spans))

	total := 0
	for _, a := range t.atomOf {
		total += int(first[a+1] - first[a])
	}
	v.Paths = make([]ASPath, 0, total)
	for _, p := range t.prefixes { // sorted, so Paths and routed come out sorted
		a := t.atomOf[p]
		if first[a] == first[a+1] {
			continue
		}
		for _, s := range spans[first[a]:first[a+1]] {
			v.Paths = append(v.Paths, ASPath{Prefix: p, Path: arena[s.lo:s.hi:s.hi]})
		}
		v.origins.Insert(p, origins[a])
		v.routed = append(v.routed, p)
	}
	for asn := range v.nbrs {
		s := v.nbrs[asn]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return v
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
	if v.links[k] {
		return
	}
	v.links[k] = true
	v.nbrs[a] = append(v.nbrs[a], b)
	v.nbrs[b] = append(v.nbrs[b], a)
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

// NeighborsOf returns the ASes adjacent to asn in observed paths.
func (v *View) NeighborsOf(asn topo.ASN) []topo.ASN { return v.nbrs[asn] }
