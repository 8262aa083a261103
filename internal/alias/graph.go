package alias

import (
	"sort"

	"bdrmap/internal/netx"
)

// Graph collapses interface addresses into inferred routers via
// transitive closure over positive alias pairs, refusing any union that
// would place a negatively-tested pair on one router (§5.3 "when building
// a router ... we only used pairs of IP addresses where none of the
// measurements suggested a pair were not aliases").
//
// The union-find runs on dense interned address IDs — flat int32 parent
// and rank slices instead of address-keyed maps — so a find is two array
// loads after path compression. The address-based API is unchanged;
// Canonical still returns the representative *address*, and which address
// roots a set is identical to the map-based implementation (union by
// rank, first root wins ties).
type Graph struct {
	in     *netx.Intern
	parent []int32
	rank   []int32
	// negs lists address pairs with negative evidence against members of
	// the set rooted at the key (kept at each root; merged on union).
	negs map[int32][]pairKey
	neg  map[pairKey]bool

	conflicts int
}

// NewGraph builds an empty alias graph.
func NewGraph() *Graph {
	return &Graph{
		in:   netx.NewIntern(256),
		negs: make(map[int32][]pairKey),
		neg:  make(map[pairKey]bool),
	}
}

// FromResolver builds the graph from a resolver's recorded verdicts.
func FromResolver(r *Resolver) *Graph {
	g := NewGraph()
	for _, k := range r.Negatives() {
		g.AddNegative(k[0], k[1])
	}
	// Deterministic union order.
	pos := r.Positives()
	sort.Slice(pos, func(i, j int) bool {
		if pos[i][0] != pos[j][0] {
			return pos[i][0] < pos[j][0]
		}
		return pos[i][1] < pos[j][1]
	})
	for _, k := range pos {
		g.Union(k[0], k[1])
	}
	return g
}

// id interns a, growing the parent/rank slabs to cover it.
func (g *Graph) id(a netx.Addr) int32 {
	id := g.in.ID(a)
	for int(id) >= len(g.parent) {
		g.parent = append(g.parent, int32(len(g.parent)))
		g.rank = append(g.rank, 0)
	}
	return id
}

// AddNegative records that a and b must not share a router. It reports
// whether the constraint is satisfiable: false means the pair was already
// merged by earlier positive evidence (a measurement conflict — union-find
// cannot split, so the merge stands and the conflict is counted).
func (g *Graph) AddNegative(a, b netx.Addr) bool {
	k := pkey(a, b)
	if g.neg[k] {
		return !g.SameRouter(a, b)
	}
	g.neg[k] = true
	ra, rb := g.findID(g.id(a)), g.findID(g.id(b))
	if ra == rb {
		g.conflicts++
		return false
	}
	g.negs[ra] = append(g.negs[ra], k)
	g.negs[rb] = append(g.negs[rb], k)
	return true
}

// Union merges the sets of a and b unless negative evidence forbids it.
// It reports whether the merge happened (or they were already together).
func (g *Graph) Union(a, b netx.Addr) bool {
	ra, rb := g.findID(g.id(a)), g.findID(g.id(b))
	if ra == rb {
		return true
	}
	// Any negative pair with one side in each set blocks the union.
	for _, k := range g.negs[ra] {
		x, y := g.findID(g.id(k[0])), g.findID(g.id(k[1]))
		if (x == ra && y == rb) || (x == rb && y == ra) {
			g.conflicts++
			return false
		}
	}
	for _, k := range g.negs[rb] {
		x, y := g.findID(g.id(k[0])), g.findID(g.id(k[1]))
		if (x == ra && y == rb) || (x == rb && y == ra) {
			g.conflicts++
			return false
		}
	}
	// Union by rank.
	if g.rank[ra] < g.rank[rb] {
		ra, rb = rb, ra
	}
	g.parent[rb] = ra
	if g.rank[ra] == g.rank[rb] {
		g.rank[ra]++
	}
	g.negs[ra] = append(g.negs[ra], g.negs[rb]...)
	delete(g.negs, rb)
	return true
}

// findID returns the root of id's set with full path compression.
func (g *Graph) findID(id int32) int32 {
	root := id
	for g.parent[root] != root {
		root = g.parent[root]
	}
	for g.parent[id] != root {
		g.parent[id], id = root, g.parent[id]
	}
	return root
}

func (g *Graph) find(a netx.Addr) netx.Addr {
	return g.in.Addr(g.findID(g.id(a)))
}

// SameRouter reports whether a and b were merged.
func (g *Graph) SameRouter(a, b netx.Addr) bool {
	return g.findID(g.id(a)) == g.findID(g.id(b))
}

// Canonical returns the representative address of a's set.
func (g *Graph) Canonical(a netx.Addr) netx.Addr { return g.find(a) }

// Sets returns every multi-address set, sorted by representative.
func (g *Graph) Sets() [][]netx.Addr {
	bySet := make(map[int32][]netx.Addr)
	for x := range g.parent {
		r := g.findID(int32(x))
		bySet[r] = append(bySet[r], g.in.Addr(int32(x)))
	}
	var roots []netx.Addr
	for r, m := range bySet {
		if len(m) > 1 {
			roots = append(roots, g.in.Addr(r))
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	out := make([][]netx.Addr, 0, len(roots))
	for _, r := range roots {
		id, _ := g.in.Lookup(r)
		m := bySet[g.findID(id)]
		sort.Slice(m, func(i, j int) bool { return m[i] < m[j] })
		out = append(out, m)
	}
	return out
}
