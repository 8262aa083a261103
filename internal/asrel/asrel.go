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
	"cmp"
	"slices"

	"bdrmap/internal/bgp"
	"bdrmap/internal/topo"
)

// Inference holds inferred relationships. Lookup direction follows
// topo.AS.RelTo: Rel(a, b) answers "what is b to a" (RelCustomer: b is a's
// customer).
type Inference struct {
	rels   map[[2]topo.ASN]topo.Rel // keyed (lo, hi); value = what hi is to lo
	view   *bgp.View                // whose links are the labeled ones
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

// Neighbors returns the ASes observed adjacent to a, sorted: the view's
// own list, shared and read-only.
func (inf *Inference) Neighbors(a topo.ASN) []topo.ASN { return inf.view.NeighborsOf(a) }

// ProvidersOf returns the inferred providers of a.
func (inf *Inference) ProvidersOf(a topo.ASN) []topo.ASN {
	return inf.withRel(a, topo.RelProvider)
}

func (inf *Inference) withRel(a topo.ASN, want topo.Rel) []topo.ASN {
	var out []topo.ASN
	for _, n := range inf.Neighbors(a) {
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

// pathSet is the view's distinct paths and observed adjacency, read where
// the view holds them. ASes are the view's dense indexes, which order as
// their ASNs do. An entry is one AS's position in another's neighbor list
// (nbr[off[a]:off[a+1]]): entry(a, b) names the link a–b seen from a, and
// entry(lo, hi), from its lower AS, names the link itself — so the passes
// of Infer index slices by entry where they would probe maps by pair.
type pathSet struct {
	view *bgp.View
	asns []topo.ASN // dense index → ASN
	off  []int32
	nbr  []topo.ASN

	// last remembers, per AS, the hop that followed it last time and the
	// link's entries both ways: paths towards one origin merge, so an AS
	// is mostly followed by the same AS again.
	last []follower
}

type follower struct{ as, fwd, rev int32 }

func newPathSet(view *bgp.View) *pathSet {
	ps := &pathSet{view: view, asns: view.ASNs()}
	ps.off, ps.nbr = view.Adjacency()
	ps.last = make([]follower, len(ps.asns))
	for i := range ps.last {
		ps.last[i].as = -1
	}
	return ps
}

// entry returns b's position in a's neighbor list, or -1 if a and b are
// not adjacent.
func (ps *pathSet) entry(a, b int32) int32 {
	if i, ok := slices.BinarySearch(ps.nbr[ps.off[a]:ps.off[a+1]], ps.asns[b]); ok {
		return ps.off[a] + int32(i)
	}
	return -1
}

// hop returns the entries of the link a path crosses from hop a to hop b:
// seen from a and seen from b.
func (ps *pathSet) hop(a, b int32) (fwd, rev int32) {
	if f := ps.last[a]; f.as == b {
		return f.fwd, f.rev
	}
	fwd, rev = ps.entry(a, b), ps.entry(b, a)
	ps.last[a] = follower{b, fwd, rev}
	return fwd, rev
}

// adjacent reports whether ASes a and b (dense indexes) share an edge.
func (ps *pathSet) adjacent(a, b int32) bool { return ps.entry(a, b) >= 0 }

// each calls fn with every path of two or more ASes and the number of
// prefixes reporting it.
func (ps *pathSet) each(fn func(hop []int32, mult int)) {
	ps.view.EachPath(func(path []int32, mult int) {
		if len(path) >= 2 {
			fn(path, mult)
		}
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
	// A neighbor is an entry of the AS's list, so the set is a mark per
	// entry: transits[entry(a, b)] says a carried traffic over its link to b.
	tdeg := make([]int, nAS)
	transits := make([]bool, len(ps.nbr))
	ps.each(func(hop []int32, _ int) {
		_, rev := ps.hop(hop[0], hop[1])
		for k := 1; k+1 < len(hop); k++ {
			fwd, next := ps.hop(hop[k], hop[k+1])
			for _, e := range [2]int32{rev, fwd} {
				if !transits[e] {
					transits[e] = true
					tdeg[hop[k]]++
				}
			}
			rev = next
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
	slices.SortFunc(candidates, func(a, b int32) int {
		return cmp.Or(cmp.Compare(tdeg[b], tdeg[a]), cmp.Compare(a, b))
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
		ps.each(func(hop []int32, mult int) {
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

	// Vote per link, at its entry from the lower AS: positive means the
	// lower AS is the higher's customer.
	votes := make([]int, len(ps.nbr))
	ps.each(func(p []int32, mult int) {
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
			// flip names the lower AS the same way.
			fwd, rev := ps.hop(p[k], p[k+1])
			e, flip := fwd, int32(0)
			if p[k] > p[k+1] {
				e, flip = rev, 1
			}
			if flip == cust {
				votes[e] += mult
			} else {
				votes[e] -= mult
			}
		}
	})

	inf := &Inference{
		rels:   make(map[[2]topo.ASN]topo.Rel, len(ps.nbr)/2),
		view:   view,
		clique: make(map[topo.ASN]bool),
	}
	for a, member := range in {
		if member {
			inf.clique[ps.asns[a]] = true
		}
	}
	for a, lo := range ps.asns {
		for e := ps.off[a]; e < ps.off[a+1]; e++ {
			hi := ps.nbr[e]
			if hi < lo {
				continue // the link's entry from its lower AS holds its votes
			}
			b, _ := slices.BinarySearch(ps.asns, hi)
			var rel topo.Rel // what the higher AS is to the lower
			switch {
			case in[a] && in[b]:
				rel = topo.RelPeer
			case votes[e] > 0:
				rel = topo.RelProvider // lower is customer ⇒ higher is its provider
			case votes[e] < 0:
				rel = topo.RelCustomer
			default:
				rel = topo.RelPeer
			}
			inf.rels[[2]topo.ASN{lo, hi}] = rel
		}
	}
	return inf
}
