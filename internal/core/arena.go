package core

import "bdrmap/internal/topo"

// Arena owns every slab the inference graph is built from. One inference
// populates the slabs; Reset truncates them in place so the next VP, and
// the next round, reuses the backing arrays instead of handing the garbage
// collector a fresh graph per run. Results never alias arena memory:
// router address slices are heap-owned, so Infer resets the arena as it
// returns, and an idle arena holds no pointer into the last inference's
// world.
//
// An Arena serves one inference at a time, so whoever runs inferences owns
// one per goroutine: each fleet worker infers on one of its eval.Carry's
// arenas (or, without a carrier, on its own for that run), and a Scenario
// has one for RunVP and RunVPRemote. Infer with a nil Input.Arena builds
// on a fresh one for that call alone.
type Arena struct {
	// Node slab and derived orderings.
	nodes []node
	order []int32 // visit order: minTTL, then creation id

	// addrs is the per-address table, indexed by interned address ID.
	addrs []addrInfo

	// Build-time event buffers: adjacency pairs in trace order, and the
	// per-node AS tallies as they arrive.
	adjEv                            []adjEvent
	dests, lastFor, firstRoutedAfter tally

	// Edge slab: directed adjacency records plus the CSR storage their
	// pair and index lists are carved from.
	edges    []edge
	pairSlab []addrPair
	succSlab []int32
	predSlab []int32
	edgeIdx  map[uint64]int32 // (from<<32|to) -> edge index
	edgeCnt  []int32          // per-edge counters, reused as fill cursors

	// asSlab backs the per-node dests/lastFor/firstRoutedAfter tallies;
	// nodeCnt is the per-node counter that lays out their windows.
	asSlab  []asCount
	nodeCnt []int32

	// Per-trace scratch of buildGraph: the interned ID of each hop (-1 for
	// a hop that is not a time-exceeded reply), and the nodes still waiting
	// for their first routed successor.
	hopIDs []int32
	seen   []int32

	// Per-decision scratch of the §5.4 cascade.
	ws workspace
}

// addrInfo is one interned address's row. What the view and the IXP list
// say about it is read once, when the address is interned, so each per-hop
// and per-pair question of §5.4 is a slice read by ID; node and spaced are
// filled in as buildGraph reads the traces.
type addrInfo struct {
	origins []topo.ASN // the view's origin set; nil when unrouted
	node    int32      // the router node holding the address, -1 before one does
	listed  bool       // the address is in its node's addrs: seen as a hop, not only named canonical
	routed  bool       // some announced prefix covers the address
	host    bool       // one of the origins belongs to the hosting organization
	ixp     bool       // inside a known IXP LAN prefix
	spaced  bool       // the positional host-space rule has inserted its delegation
}

// tally collects one per-node AS tally in arrival order. Events for one node
// and one AS that arrive back to back fold into one run, and a target's
// traces are consecutive, so the stream holds about one run per distinct
// (node, AS) rather than one event per hop.
type tally struct {
	runs []tallyRun
	last []int32 // node -> index of its newest run, -1 before its first
}

type tallyRun struct {
	node int32
	c    asCount
}

// add counts one event of as at node n.
func (t *tally) add(n int32, as topo.ASN) {
	for int(n) >= len(t.last) {
		t.last = append(t.last, -1)
	}
	if i := t.last[n]; i >= 0 && t.runs[i].c.as == as {
		t.runs[i].c.n++
		return
	}
	t.last[n] = int32(len(t.runs))
	t.runs = append(t.runs, tallyRun{n, asCount{as: as, n: 1}})
}

func (t *tally) reset() {
	t.runs = t.runs[:0]
	t.last = t.last[:0]
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

// nextEpoch opens a new epoch, so every slot reads as unset. A carried
// arena can run through all 2^32 epochs; on the wrap the slots are
// cleared, since a slot written in the epoch of the same number would
// otherwise read as set.
func (ws *workspace) nextEpoch() {
	ws.epoch++
	if ws.epoch == 0 {
		clear(ws.seenEpoch)
		ws.epoch = 1
	}
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

// addrPair is the interned IDs of the two addresses an adjacency was
// observed over.
type addrPair struct{ from, to int32 }

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

// Reset truncates every slab in place, keeping capacity. The rows that
// hold pointers are zeroed first, so the truncated tail pins neither the
// last Result's address slices nor the last view's origin sets.
func (a *Arena) Reset() {
	clear(a.nodes)
	a.nodes = a.nodes[:0]
	a.order = a.order[:0]
	clear(a.addrs)
	a.addrs = a.addrs[:0]
	a.adjEv = a.adjEv[:0]
	a.dests.reset()
	a.lastFor.reset()
	a.firstRoutedAfter.reset()
	clear(a.edges)
	a.edges = a.edges[:0]
	a.pairSlab = a.pairSlab[:0]
	a.succSlab = a.succSlab[:0]
	a.predSlab = a.predSlab[:0]
	clear(a.edgeIdx)
	a.edgeCnt = a.edgeCnt[:0]
	a.asSlab = a.asSlab[:0]
	a.nodeCnt = a.nodeCnt[:0]
	a.hopIDs = a.hopIDs[:0]
	a.seen = a.seen[:0]
	// Workspace epoch arrays survive as-is: slots older than the current
	// epoch read as unset, so no clearing is needed.
}
