package alias

import (
	"sort"
	"strconv"

	"bdrmap/internal/netx"
)

// fmtIDs renders IP-ID samples as comma-separated decimals — what Ally's
// provenance events carried before samples were stored as numbers; kept
// verbatim as the oracle for how they export.
func fmtIDs(ids []uint16) string {
	b := make([]byte, 0, 6*len(ids))
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	return string(b)
}

// Members returns all addresses sharing a's set, sorted.
func (g *Graph) Members(a netx.Addr) []netx.Addr {
	root := g.findID(g.id(a))
	var out []netx.Addr
	for x := range g.parent {
		if g.findID(int32(x)) == root {
			out = append(out, g.in.Addr(int32(x)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Conflicts returns how many unions were refused due to negative evidence.
func (g *Graph) Conflicts() int { return g.conflicts }
