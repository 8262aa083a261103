package netx

import (
	"sort"
)

// Block is a contiguous, inclusive range of IPv4 addresses. bdrmap probes
// the address space each AS routes as a set of blocks: if X originates
// 128.66.0.0/16 and Y originates the more-specific 128.66.2.0/24, the /24
// is carved out of the /16, leaving X with two blocks around it (§5.3).
type Block struct {
	First, Last Addr
}

// BlockFromPrefix returns the block covering exactly prefix p.
func BlockFromPrefix(p Prefix) Block {
	return Block{First: p.First(), Last: p.Last()}
}

// Contains reports whether a falls inside b.
func (b Block) Contains(a Addr) bool { return a >= b.First && a <= b.Last }

// NumAddrs returns the number of addresses in b.
func (b Block) NumAddrs() uint64 { return uint64(b.Last) - uint64(b.First) + 1 }

// Subtract removes the addresses of prefix p from block b, returning the
// zero, one, or two blocks that remain.
func (b Block) Subtract(p Prefix) []Block {
	pf, pl := p.First(), p.Last()
	if pl < b.First || pf > b.Last {
		return []Block{b} // disjoint
	}
	var out []Block
	if pf > b.First {
		out = append(out, Block{First: b.First, Last: pf - 1})
	}
	if pl < b.Last {
		out = append(out, Block{First: pl + 1, Last: b.Last})
	}
	return out
}

// CarveBlocks computes the address blocks of prefix p that are NOT covered
// by any of the given more-specific prefixes. This implements §5.3's
// "generate list of address blocks to probe" carving.
func CarveBlocks(p Prefix, moreSpecific []Prefix) []Block {
	blocks := []Block{BlockFromPrefix(p)}
	for _, ms := range moreSpecific {
		if !p.ContainsPrefix(ms) || ms == p {
			continue
		}
		var next []Block
		for _, b := range blocks {
			next = append(next, b.Subtract(ms)...)
		}
		blocks = next
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].First < blocks[j].First })
	return blocks
}
