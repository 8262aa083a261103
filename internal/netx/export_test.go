package netx

import "fmt"

// Prefix and block helpers only the tests build inputs with.

// Halves splits p into its two child prefixes of length Len+1.
func (p Prefix) Halves() (lo, hi Prefix) {
	if p.Len >= 32 {
		return p, p
	}
	childLen := p.Len + 1
	lo = Prefix{Base: p.Base, Len: childLen}
	hi = Prefix{Base: p.Base | Addr(1<<(32-uint(childLen))), Len: childLen}
	return lo, hi
}

// Subnet returns the idx'th subnet of length sublen within p.
// It panics if sublen < p.Len or idx is out of range.
func (p Prefix) Subnet(sublen int, idx int) Prefix {
	if sublen < p.Len || sublen > 32 {
		panic(fmt.Sprintf("netx: invalid subnet length %d of %v", sublen, p))
	}
	n := 1 << uint(sublen-p.Len)
	if idx < 0 || idx >= n {
		panic(fmt.Sprintf("netx: subnet index %d out of range for %v -> /%d", idx, p, sublen))
	}
	return Prefix{Base: p.Base + Addr(idx<<(32-uint(sublen))), Len: sublen}
}

// Empty reports whether b covers no addresses (Last < First).
func (b Block) Empty() bool { return b.Last < b.First }

// Reset forgets every assignment but keeps the backing storage, so a table
// reused across rounds reaches steady state without reallocating.
func (t *Intern) Reset() {
	clear(t.ids)
	t.addrs = t.addrs[:0]
}
