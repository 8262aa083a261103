package topo

import (
	"fmt"

	"bdrmap/internal/netx"
)

// Allocator hands out non-overlapping IPv4 prefixes, mimicking RIR
// delegation. Top-level allocations walk the space from 1.0.0.0 upward;
// sub-allocations carve subnets out of a previously allocated prefix
// (used for interconnection /30s and /31s from an AS's infrastructure
// block, and for provider-aggregatable delegations to customers).
type Allocator struct {
	cursor netx.Addr
	// subCursor tracks the next free address per parent prefix, so /30
	// and /31 sub-allocations from the same parent never overlap.
	subCursor map[netx.Prefix]netx.Addr
}

// NewAllocator returns an allocator starting at 1.0.0.0.
func NewAllocator() *Allocator {
	return &Allocator{
		cursor:    netx.MustParseAddr("1.0.0.0"),
		subCursor: make(map[netx.Prefix]netx.Addr),
	}
}

// Next allocates the next aligned /plen prefix.
func (al *Allocator) Next(plen int) netx.Prefix {
	if plen < 8 || plen > 32 {
		panic(fmt.Sprintf("topo: implausible allocation length /%d", plen))
	}
	// Align the cursor up to a /plen boundary.
	size := netx.Addr(1) << (32 - uint(plen))
	base := (al.cursor + size - 1) &^ (size - 1)
	if base < al.cursor { // wrapped
		panic("topo: address space exhausted")
	}
	al.cursor = base + size
	return netx.MakePrefix(base, plen)
}

// Sub allocates the next free /plen subnet inside parent. It panics when
// parent is exhausted.
func (al *Allocator) Sub(parent netx.Prefix, plen int) netx.Prefix {
	if plen < parent.Len {
		panic(fmt.Sprintf("topo: sub-allocation /%d larger than parent %v", plen, parent))
	}
	cur, ok := al.subCursor[parent]
	if !ok {
		cur = parent.First()
	}
	size := netx.Addr(1) << (32 - uint(plen))
	base := (cur + size - 1) &^ (size - 1)
	if base < cur || base+size-1 > parent.Last() || base < parent.First() {
		panic(fmt.Sprintf("topo: parent %v exhausted for /%d subnets", parent, plen))
	}
	al.subCursor[parent] = base + size
	return netx.MakePrefix(base, plen)
}
