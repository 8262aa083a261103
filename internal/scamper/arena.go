package scamper

import (
	"slices"
	"sync"

	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
)

// arena owns the driver's scratch memory: everything a probe stage, an
// alias stage or a trace fingerprint builds, reads and drops before it
// returns. Driver.Probe, resolveAliases and Dataset.TraceFingerprint each
// take an idle arena from the package's free list (or make one when every
// arena is busy) and put it back emptied, so what one stage grew serves
// the next stage of any VP, world or round instead of going to the garbage
// collector. Nothing a stage returns aliases arena
// memory: Dataset.Traces is copied out of the record buffers, and the
// cross-round state keeps records by value. An idle arena holds no pointer
// into the last map: record buffers and priors are cleared, not only
// truncated (a stop set holds addresses only, and every target clears it
// as it starts).
type arena struct {
	// The probe stage: one slot per target, written by exactly one worker,
	// and per worker w the trace records (and, with cross-round state, the
	// path signatures) its targets' runs are cut from, its stop set and its
	// per-prefix priors. A target's records are one contiguous run of its
	// worker's buffer; a buffer that outgrows its array goes on in a larger
	// one, and the runs cut before stay valid in the old array until the
	// arena is emptied.
	outs     []targetOut
	recs     [][]TraceRecord
	sigs     [][]uint64
	stopSets []map[netx.Addr]bool
	priors   []map[netx.Prefix][]probe.Hop

	// tables are the per-router tables of the lanes the stages opened,
	// released cleared when each stage ends and adopted by the next
	// stage's lanes.
	tables []probe.RouterTable

	// The alias stage's edge index over the traces' time-exceeded hops:
	// each address's ID and, by ID, the predecessors seen right before it,
	// once each, in first-seen order — Ally's per-address pair cap takes
	// the first pairs of that order. sorted is the addresses in ascending
	// order. preds keeps its lists' backing arrays across stages.
	id     map[netx.Addr]int32
	preds  [][]netx.Addr
	sorted []netx.Addr

	// Dataset.TraceFingerprint: the traces' sort keys, and the lines it
	// renders one at a time (fpOther is the second line of a comparison)
	// with the hops of the line being rendered.
	fpKeys          []traceKey
	fpLine, fpOther []byte
	fpHops          []obs.Hop
}

// idleArenas is the free list of arenas no stage is using: a plain slice
// rather than a sync.Pool, which the garbage collector empties, so an idle
// arena keeps the buffers the next stage would otherwise rebuild.
var idleArenas struct {
	sync.Mutex
	list []*arena
}

// takeArena lends a stage an idle arena, or a new one.
func takeArena() *arena {
	idleArenas.Lock()
	defer idleArenas.Unlock()
	if n := len(idleArenas.list); n > 0 {
		ar := idleArenas.list[n-1]
		idleArenas.list = idleArenas.list[:n-1]
		return ar
	}
	return &arena{id: make(map[netx.Addr]int32)}
}

// putArena empties ar and returns it to the free list.
func putArena(ar *arena) {
	clear(ar.outs)
	ar.outs = ar.outs[:0]
	for w := range ar.recs {
		clear(ar.recs[w])
		ar.recs[w], ar.sigs[w] = ar.recs[w][:0], ar.sigs[w][:0]
		clear(ar.priors[w])
	}
	clear(ar.id)
	for i := range ar.preds {
		ar.preds[i] = ar.preds[i][:0]
	}
	ar.sorted = ar.sorted[:0]
	ar.fpKeys, ar.fpLine, ar.fpOther, ar.fpHops = ar.fpKeys[:0], ar.fpLine[:0], ar.fpOther[:0], ar.fpHops[:0]
	idleArenas.Lock()
	idleArenas.list = append(idleArenas.list, ar)
	idleArenas.Unlock()
}

// adopt gives tl, when it is a lane, one of the arena's router tables.
func (ar *arena) adopt(tl Timeline) {
	ln, ok := tl.(*probe.Lane)
	if !ok {
		return
	}
	if n := len(ar.tables); n > 0 {
		ln.Adopt(ar.tables[n-1])
		ar.tables = ar.tables[:n-1]
	}
}

// release takes tl's router table back when tl is a lane.
func (ar *arena) release(tl Timeline) {
	if ln, ok := tl.(*probe.Lane); ok {
		ar.tables = append(ar.tables, ln.Release())
	}
}

// slots returns n empty target slots and makes sure every worker of n has
// its buffers.
func (ar *arena) slots(n, workers int) []targetOut {
	ar.outs = slices.Grow(ar.outs, n)[:n]
	for len(ar.recs) < workers {
		ar.recs = append(ar.recs, nil)
		ar.sigs = append(ar.sigs, nil)
		ar.stopSets = append(ar.stopSets, make(map[netx.Addr]bool))
		ar.priors = append(ar.priors, make(map[netx.Prefix][]probe.Hop))
	}
	return ar.outs
}

// indexEdges fills the edge index from the traces: consecutive
// time-exceeded hops with no timeout between them are an edge. An address
// has few predecessors (at most four on every VP of the built-in worlds),
// so an edge seen before is found by scanning them.
func (ar *arena) indexEdges(traces []TraceRecord) {
	for _, tr := range traces {
		var prev netx.Addr
		for _, h := range tr.Hops {
			if h.Type != probe.HopTimeExceeded {
				if h.Type == probe.HopTimeout {
					prev = 0
				}
				continue
			}
			cur, ok := ar.id[h.Addr]
			if !ok {
				cur = int32(len(ar.sorted))
				ar.id[h.Addr] = cur
				ar.sorted = append(ar.sorted, h.Addr)
				if int(cur) == len(ar.preds) {
					ar.preds = append(ar.preds, nil)
				}
			}
			if !prev.IsZero() && prev != h.Addr && !slices.Contains(ar.preds[cur], prev) {
				ar.preds[cur] = append(ar.preds[cur], prev)
			}
			prev = h.Addr
		}
	}
	slices.Sort(ar.sorted)
}
