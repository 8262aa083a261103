package core

import (
	"sync"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// Arena owns every slab the inference graph is built from. One inference
// populates the slabs; Reset truncates them in place so the next round (or
// the next eval scenario) reuses the backing arrays instead of handing the
// garbage collector a fresh graph per run. Results never alias arena
// memory: router address slices are heap-owned, so an Arena can be reset
// the moment Infer returns.
//
// An Arena serves one inference at a time. Infer uses Input.Arena when set;
// otherwise it borrows one from an internal pool, which keeps concurrent
// inferences (parallel eval scenarios, mapdb equivalence checks) safe while
// still reaching steady-state allocation for callers that loop.
type Arena struct {
	// Node slab and derived orderings.
	nodes    []node
	order    []int32 // visit order: minTTL, then creation id
	addrNode []int32 // interned addr ID -> node id, -1 when absent

	// Build-time event buffers: adjacency pairs in trace order, and packed
	// (node<<32|AS) keys for the per-node AS tallies.
	adjEv  []adjEvent
	destEv []uint64
	lastEv []uint64
	fraEv  []uint64

	// Edge slab: directed adjacency records plus the CSR storage their
	// pair and index lists are carved from.
	edges    []edge
	pairSlab []addrPair
	succSlab []int32
	predSlab []int32
	edgeIdx  map[uint64]int32 // (from<<32|to) -> edge index
	edgeCnt  []int32          // per-edge counters, reused as fill cursors

	// asSlab backs the per-node dests/lastFor/firstRoutedAfter tallies.
	asSlab []asCount

	// seen lists, per trace, the nodes still waiting for their first
	// routed successor (buildGraph pass 2).
	seen []int32

	// Per-decision scratch of the §5.4 cascade.
	ws workspace
}

// workspace holds the small per-decision scratch buffers of the §5.4
// cascade; each is valid until the next helper that fills it runs.
type workspace struct {
	extAdj []asCount
	counts []asCount
	asns   []topo.ASN

	// seenEpoch deduplicates interned addresses without clearing: a slot
	// is "set" when it holds the current epoch.
	seenEpoch []uint32
	epoch     uint32
}

// mark records an interned address as seen in the current epoch and
// reports whether it was already seen. The slot array grows on demand.
func (ws *workspace) mark(id int32) bool {
	for int(id) >= len(ws.seenEpoch) {
		ws.seenEpoch = append(ws.seenEpoch, 0)
	}
	if ws.seenEpoch[id] == ws.epoch {
		return true
	}
	ws.seenEpoch[id] = ws.epoch
	return false
}

// adjEvent is one observed adjacency: consecutive responding hops.
type adjEvent struct {
	from, to int32
	pair     addrPair
}

// edge is a directed router adjacency with the address pairs it was
// observed over, in trace order. The pair slice starts as a window into
// the arena's pair slab; §5.4.7 merges may extend it (copying out).
type edge struct {
	from, to int32
	pairs    []addrPair
}

type addrPair struct{ from, to netx.Addr }

// asCount is one (AS, count) tally; slices of it replace the per-node
// count maps of the map-based core and iterate in sorted AS order.
type asCount struct {
	as topo.ASN
	n  int32
}

// findAS returns the count for as in a sorted asCount slice, 0 if absent.
func findAS(s []asCount, as topo.ASN) int32 {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid].as < as {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo].as == as {
		return s[lo].n
	}
	return 0
}

// Reset truncates every slab in place, keeping capacity.
func (a *Arena) Reset() {
	a.nodes = a.nodes[:0]
	a.order = a.order[:0]
	a.addrNode = a.addrNode[:0]
	a.adjEv = a.adjEv[:0]
	a.destEv = a.destEv[:0]
	a.lastEv = a.lastEv[:0]
	a.fraEv = a.fraEv[:0]
	a.edges = a.edges[:0]
	a.pairSlab = a.pairSlab[:0]
	a.succSlab = a.succSlab[:0]
	a.predSlab = a.predSlab[:0]
	clear(a.edgeIdx)
	a.edgeCnt = a.edgeCnt[:0]
	a.asSlab = a.asSlab[:0]
	a.seen = a.seen[:0]
	// Workspace epoch arrays survive as-is: slots older than the current
	// epoch read as unset, so no clearing is needed.
}

var arenaPool = sync.Pool{New: func() any { return &Arena{} }}
