// Package asrel infers business relationships between ASes from the AS
// paths observed in a public BGP view, following the approach of "AS
// Relationships, Customer Cones, and Validation" (IMC 2013) that the bdrmap
// paper uses as input (§5.2): infer a clique of Tier-1 networks from
// transit degree and mutual adjacency, classify edges on the announcement's
// uphill side as customer→provider and the downhill side as
// provider→customer, and label the remainder peer–peer.
//
// bdrmap consumes these *inferred* (imperfect) labels, never ground truth;
// the package's tests measure inference accuracy against the simulator's
// truth the same way the 2013 paper validated against operator data.
package asrel

import (
	"slices"
	"sort"

	"bdrmap/internal/bgp"
	"bdrmap/internal/topo"
)

// Inference holds inferred relationships. Lookup direction follows
// topo.AS.RelTo: Rel(a, b) answers "what is b to a" (RelCustomer: b is a's
// customer).
type Inference struct {
	rels   map[[2]topo.ASN]topo.Rel // keyed (lo, hi); value = what hi is to lo
	nbrs   map[topo.ASN][]topo.ASN
	clique map[topo.ASN]bool
}

// Rel returns the inferred relationship: what b is to a.
// RelNone if the pair was never observed adjacent.
func (inf *Inference) Rel(a, b topo.ASN) topo.Rel {
	if a == b {
		return topo.RelNone
	}
	if a < b {
		return inf.rels[[2]topo.ASN{a, b}]
	}
	return inf.rels[[2]topo.ASN{b, a}].Invert()
}

// Neighbors returns the ASes observed adjacent to a, sorted.
func (inf *Inference) Neighbors(a topo.ASN) []topo.ASN { return inf.nbrs[a] }

// ProvidersOf returns the inferred providers of a.
func (inf *Inference) ProvidersOf(a topo.ASN) []topo.ASN {
	return inf.withRel(a, topo.RelProvider)
}

func (inf *Inference) withRel(a topo.ASN, want topo.Rel) []topo.ASN {
	var out []topo.ASN
	for _, n := range inf.nbrs[a] {
		if inf.Rel(a, n) == want {
			out = append(out, n)
		}
	}
	return out
}

// InClique reports whether a was inferred to be a Tier-1 clique member.
func (inf *Inference) InClique(a topo.ASN) bool { return inf.clique[a] }

// Len returns the number of labeled AS links.
func (inf *Inference) Len() int { return len(inf.rels) }

// pathSet is the view's distinct paths, read where the view holds them,
// with every observed adjacency one entry of a single edge table and each
// hop carrying the id of the edge to the next hop — worked out once, so
// the passes of Infer index slices where they would probe maps per hop.
// ASes are the view's dense indexes, which order as their ASNs do.
type pathSet struct {
	view   *bgp.View
	asns   []topo.ASN       // dense index → ASN
	edges  [][2]int32       // edge id → its ASes, lower first
	edgeID map[[2]int32]int // the inverse

	// link holds one entry per hop of every path of two or more ASes, in
	// EachPath order: the edge joining the hop to the next, as edge
	// id<<1, |1 when the hop is the edge's higher AS; unset at a path's
	// last hop.
	link []int32
}

func newPathSet(view *bgp.View) *pathSet {
	hops := 0
	view.EachPath(func(path []int32, _ int) {
		if len(path) >= 2 {
			hops += len(path)
		}
	})
	ps := &pathSet{
		view:   view,
		asns:   view.ASNs(),
		edgeID: make(map[[2]int32]int),
		link:   make([]int32, 0, hops),
	}
	// Paths towards one origin merge, so an AS is mostly followed by the AS
	// that followed it last time: remember that link per AS.
	type follower struct{ as, link int32 }
	last := make([]follower, len(ps.asns))
	for i := range last {
		last[i].as = -1
	}
	view.EachPath(func(path []int32, _ int) {
		if len(path) < 2 {
			return // no adjacency, no triple, no vote
		}
		for k, a := range path[:len(path)-1] {
			b := path[k+1]
			if last[a].as != b {
				last[a] = follower{as: b, link: ps.linkBetween(a, b)}
			}
			ps.link = append(ps.link, last[a].link)
		}
		ps.link = append(ps.link, -1)
	})
	return ps
}

// linkBetween returns what pathSet.link holds for a hop a followed by a hop
// b, entering their edge in the table if it is new.
func (ps *pathSet) linkBetween(a, b int32) int32 {
	pair, flip := [2]int32{a, b}, int32(0)
	if a > b {
		pair, flip = [2]int32{b, a}, 1
	}
	e, ok := ps.edgeID[pair]
	if !ok {
		e = len(ps.edges)
		ps.edgeID[pair] = e
		ps.edges = append(ps.edges, pair)
	}
	return int32(e)<<1 | flip
}

// adjacent reports whether ASes a and b (dense indexes) share an edge.
func (ps *pathSet) adjacent(a, b int32) bool {
	if a > b {
		a, b = b, a
	}
	_, ok := ps.edgeID[[2]int32{a, b}]
	return ok
}

// each calls fn with every path of two or more ASes, its links (one per
// AS, the last unset) and the number of prefixes reporting it.
func (ps *pathSet) each(fn func(hop, link []int32, mult int)) {
	lo := 0
	ps.view.EachPath(func(path []int32, mult int) {
		if len(path) < 2 {
			return
		}
		hi := lo + len(path)
		fn(path, ps.link[lo:hi], mult)
		lo = hi
	})
}

// Infer runs relationship inference over the view's paths. Each distinct
// path is visited once, counted as many times as prefixes report it where
// the inference counts (clique-triple involvement, votes) and once where
// it collects sets (adjacency, transit degree).
func Infer(view *bgp.View) *Inference {
	ps := newPathSet(view)
	nAS := len(ps.asns)

	// Transit degree: distinct neighbors an AS appears between in paths.
	// A neighbor is an edge seen from one of its ends, so the set is a mark
	// per edge end: transits[e<<1|1] says edge e's higher AS carried
	// traffic over it.
	tdeg := make([]int, nAS)
	transits := make([]bool, 2*len(ps.edges))
	ps.each(func(hop, link []int32, _ int) {
		for k := 1; k+1 < len(hop); k++ {
			for _, end := range [2]int32{link[k-1] ^ 1, link[k]} {
				if !transits[end] {
					transits[end] = true
					tdeg[hop[k]]++
				}
			}
		}
	})

	// Greedy clique from the highest transit degrees, requiring mutual
	// adjacency with every member admitted so far.
	var candidates []int32
	for a, d := range tdeg {
		if d >= 2 { // clique members all carry transit
			candidates = append(candidates, int32(a))
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if tdeg[a] != tdeg[b] {
			return tdeg[a] > tdeg[b]
		}
		return a < b
	})
	candidates = candidates[:min(len(candidates), 16)]
	// A well-connected access network can top the transit-degree ranking,
	// so greedy growth from the single largest seed can anchor the clique
	// on a non-Tier-1. Grow a clique from every candidate seed and keep
	// the largest (ties: highest combined transit degree): the genuine
	// Tier-1 mesh is the biggest mutually-adjacent set.
	var clique []int32
	bestScore := -1
	for _, seed := range candidates {
		cl := []int32{seed}
		for _, a := range candidates {
			if len(cl) >= 12 || a == seed {
				continue
			}
			ok := true
			for _, c := range cl {
				if !ps.adjacent(a, c) {
					ok = false
					break
				}
			}
			if ok {
				cl = append(cl, a)
			}
		}
		score := 0
		for _, a := range cl {
			score += 1<<16 + tdeg[a]
		}
		if score > bestScore {
			bestScore, clique = score, cl
		}
	}
	in := make([]bool, nAS) // clique membership from here on: refinement clears entries
	for _, a := range clique {
		in[a] = true
	}

	// Refinement: three true clique members can never appear consecutively
	// in a path — that would require one to re-export a peer route to a
	// peer. Every consecutive clique triple therefore contains a false
	// member (typically a well-connected access network whose transit
	// degree rivals the Tier-1s). Iteratively remove the member involved
	// in the most violating triples until no triples remain.
	involvement := make([]int, nAS)
	for {
		clear(involvement)
		ps.each(func(hop, _ []int32, mult int) {
			for k := 0; k+2 < len(hop); k++ {
				a, b, c := hop[k], hop[k+1], hop[k+2]
				if in[a] && in[b] && in[c] && a != c {
					involvement[a] += mult
					involvement[b] += mult
					involvement[c] += mult
				}
			}
		})
		worst, worstN := int32(-1), 0
		for _, a := range clique {
			if n := involvement[a]; n > worstN || (n == worstN && n > 0 && a < worst) {
				worst, worstN = a, n
			}
		}
		if worst < 0 {
			break
		}
		in[worst] = false
	}

	// Vote per edge: positive means the lower AS is the higher's customer.
	votes := make([]int, len(ps.edges))
	ps.each(func(p, link []int32, mult int) {
		// Apex: the last clique member in path order (clique members sit
		// at the top of a valley-free path), or failing that the
		// highest-transit-degree position.
		apex := -1
		for k, a := range p {
			if in[a] {
				apex = k
			}
		}
		if apex < 0 {
			best := -1
			for k, a := range p {
				if d := tdeg[a]; d > best {
					apex, best = k, d
				}
			}
		}
		// Path order is vantage..origin. The announcement climbed from
		// the origin to the apex (right-of-apex edges are c2p with the
		// left AS the provider) and descended from the apex to the
		// vantage. The single possible peer edge touches the apex, so
		// apex-adjacent edges are ambiguous — with one rigorous
		// exception: when the apex's route continued to *another clique
		// member*, the AS it learned the route from must be its customer
		// (peers never re-export peer routes to peers).
		for k := 0; k+1 < len(p); k++ {
			// The customer end of the edge, if this path names one: 0 the
			// left AS (descent: left heard from right), 1 the right AS
			// (climb: right announced up to left).
			var cust int32
			switch {
			case k+1 == apex:
				// vantage-side adjacent edge: always ambiguous (the apex
				// may be exporting a peer's customer cone downward).
				continue
			case k == apex:
				if !(in[p[apex]] && apex > 0 && in[p[apex-1]] && !in[p[k+1]]) {
					continue
				}
				cust = 1
			case k < apex:
				cust = 0
			default:
				cust = 1
			}
			// link's low bit names the lower AS the same way.
			if link[k]&1 == cust {
				votes[link[k]>>1] += mult
			} else {
				votes[link[k]>>1] -= mult
			}
		}
	})

	inf := &Inference{
		rels:   make(map[[2]topo.ASN]topo.Rel, len(ps.edges)),
		nbrs:   make(map[topo.ASN][]topo.ASN, nAS),
		clique: make(map[topo.ASN]bool),
	}
	for a, member := range in {
		if member {
			inf.clique[ps.asns[a]] = true
		}
	}
	for e, pair := range ps.edges {
		var rel topo.Rel // what the higher AS is to the lower
		switch {
		case in[pair[0]] && in[pair[1]]:
			rel = topo.RelPeer
		case votes[e] > 0:
			rel = topo.RelProvider // lower is customer ⇒ higher is its provider
		case votes[e] < 0:
			rel = topo.RelCustomer
		default:
			rel = topo.RelPeer
		}
		lo, hi := ps.asns[pair[0]], ps.asns[pair[1]]
		inf.rels[[2]topo.ASN{lo, hi}] = rel
		inf.nbrs[lo] = append(inf.nbrs[lo], hi)
		inf.nbrs[hi] = append(inf.nbrs[hi], lo)
	}
	for _, s := range inf.nbrs {
		slices.Sort(s)
	}
	return inf
}
