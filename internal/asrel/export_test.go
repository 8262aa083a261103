package asrel

import (
	"sort"

	"bdrmap/internal/bgp"
	"bdrmap/internal/topo"
)

// The per-path oracle: relationship inference as it was before it ran on
// dense indexes, kept verbatim as the differential reference. It walks the
// view's per-(prefix, vantage) expansion three times, probing a map of
// maps and two pair-keyed maps per hop per pass, and counts a path once per
// prefix reporting it. Nothing here is shared with Infer but the Inference
// result type, whose neighbor lists are the view's: the oracle returns the
// lists it works out from the paths beside it.

// inferOracle runs relationship inference over the view's paths.
func inferOracle(view *bgp.View) (*Inference, map[topo.ASN][]topo.ASN) {
	paths := view.Paths()
	inf := &Inference{
		rels:   make(map[[2]topo.ASN]topo.Rel),
		view:   view,
		clique: make(map[topo.ASN]bool),
	}
	nbrs := make(map[topo.ASN][]topo.ASN)

	// Transit degree: distinct neighbors an AS appears between in paths.
	transit := make(map[topo.ASN]map[topo.ASN]bool)
	adj := make(map[[2]topo.ASN]bool)
	for _, ap := range paths {
		p := ap.Path
		for i := 1; i < len(p); i++ {
			adj[key(p[i-1], p[i])] = true
		}
		for i := 1; i+1 < len(p); i++ {
			m := transit[p[i]]
			if m == nil {
				m = make(map[topo.ASN]bool)
				transit[p[i]] = m
			}
			m[p[i-1]] = true
			m[p[i+1]] = true
		}
	}
	tdeg := func(a topo.ASN) int { return len(transit[a]) }

	// Greedy clique from the highest transit degrees, requiring mutual
	// adjacency with every member admitted so far.
	var byDeg []topo.ASN
	for a := range transit {
		byDeg = append(byDeg, a)
	}
	sort.Slice(byDeg, func(i, j int) bool {
		if tdeg(byDeg[i]) != tdeg(byDeg[j]) {
			return tdeg(byDeg[i]) > tdeg(byDeg[j])
		}
		return byDeg[i] < byDeg[j]
	})
	var candidates []topo.ASN
	for _, a := range byDeg {
		if tdeg(a) < 2 {
			break // clique members all carry transit
		}
		candidates = append(candidates, a)
		if len(candidates) >= 16 {
			break
		}
	}
	// A well-connected access network can top the transit-degree ranking,
	// so greedy growth from the single largest seed can anchor the clique
	// on a non-Tier-1. Grow a clique from every candidate seed and keep
	// the largest (ties: highest combined transit degree): the genuine
	// Tier-1 mesh is the biggest mutually-adjacent set.
	bestScore := -1
	for _, seed := range candidates {
		cl := map[topo.ASN]bool{seed: true}
		for _, a := range candidates {
			if len(cl) >= 12 || cl[a] {
				continue
			}
			ok := true
			for c := range cl {
				if !adj[key(a, c)] {
					ok = false
					break
				}
			}
			if ok {
				cl[a] = true
			}
		}
		score := 0
		for a := range cl {
			score += 1<<16 + tdeg(a)
		}
		if score > bestScore {
			bestScore = score
			inf.clique = cl
		}
	}
	if inf.clique == nil {
		inf.clique = map[topo.ASN]bool{}
	}

	// Refinement: three true clique members can never appear consecutively
	// in a path — that would require one to re-export a peer route to a
	// peer. Every consecutive clique triple therefore contains a false
	// member (typically a well-connected access network whose transit
	// degree rivals the Tier-1s). Iteratively remove the member involved
	// in the most violating triples until no triples remain.
	for {
		involvement := make(map[topo.ASN]int)
		for _, ap := range paths {
			p := ap.Path
			for i := 0; i+2 < len(p); i++ {
				if inf.clique[p[i]] && inf.clique[p[i+1]] && inf.clique[p[i+2]] &&
					p[i] != p[i+2] {
					involvement[p[i]]++
					involvement[p[i+1]]++
					involvement[p[i+2]]++
				}
			}
		}
		if len(involvement) == 0 {
			break
		}
		var worst topo.ASN
		worstN := -1
		for a, n := range involvement {
			if n > worstN || (n == worstN && a < worst) {
				worst, worstN = a, n
			}
		}
		delete(inf.clique, worst)
	}

	// Vote per edge. Sign convention on the canonical (lo, hi) key:
	// positive = lo is customer of hi.
	votes := make(map[[2]topo.ASN]int)
	vote := func(cust, prov topo.ASN) {
		k := key(cust, prov)
		if k[0] == cust {
			votes[k]++
		} else {
			votes[k]--
		}
	}
	for _, ap := range paths {
		p := ap.Path
		if len(p) < 2 {
			continue
		}
		// Apex: the last clique member in path order (clique members sit
		// at the top of a valley-free path), or failing that the
		// highest-transit-degree position.
		apex := -1
		for i, a := range p {
			if inf.clique[a] {
				apex = i
			}
		}
		if apex < 0 {
			best := -1
			for i, a := range p {
				if d := tdeg(a); d > best {
					apex, best = i, d
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
		for i := 0; i+1 < len(p); i++ {
			switch {
			case i+1 == apex:
				// vantage-side adjacent edge: always ambiguous (the apex
				// may be exporting a peer's customer cone downward).
			case i == apex:
				if inf.clique[p[apex]] && apex > 0 && inf.clique[p[apex-1]] &&
					!inf.clique[p[i+1]] {
					vote(p[i+1], p[apex])
				}
			case i < apex:
				vote(p[i], p[i+1]) // descent: left heard from right
			default:
				vote(p[i+1], p[i]) // climb: right announced up to left
			}
		}
	}

	for k := range adj {
		lo, hi := k[0], k[1]
		var rel topo.Rel // what hi is to lo
		switch {
		case inf.clique[lo] && inf.clique[hi]:
			rel = topo.RelPeer
		case votes[k] > 0:
			rel = topo.RelProvider // lo is customer ⇒ hi is lo's provider
		case votes[k] < 0:
			rel = topo.RelCustomer
		default:
			rel = topo.RelPeer
		}
		inf.rels[k] = rel
		nbrs[lo] = append(nbrs[lo], hi)
		nbrs[hi] = append(nbrs[hi], lo)
	}
	for a := range nbrs {
		s := nbrs[a]
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		nbrs[a] = s
	}
	return inf, nbrs
}

func key(a, b topo.ASN) [2]topo.ASN {
	if a < b {
		return [2]topo.ASN{a, b}
	}
	return [2]topo.ASN{b, a}
}

// CustomersOf returns the inferred customers of a.
func (inf *Inference) CustomersOf(a topo.ASN) []topo.ASN {
	return inf.withRel(a, topo.RelCustomer)
}
