package scamper

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"bdrmap/internal/alias"
	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// Cross-round measurement memory (the incremental round engine).
//
// The paper's doubletree stop set (§5.2) exists so repeated probing does
// not re-walk unchanged paths. A RoundState extends that memory across
// rounds: for every destination the last round probed it keeps the trace
// and the path signature (probe.Engine.PathSignature) the world had when
// it was recorded. Round N+1 walks the same schedule and, at each
// destination, replays the cached trace instead of probing when both hold:
// the path signature is unchanged, and the current stop set would halt a
// walk where the cached trace halted (probe.TraceResult.Repeats). Such a
// trace is exactly what a live walk would return, so a replayed trace
// costs zero probe packets and everything after it — stop-set insertion,
// the §5.3 retry rule — runs the live code on the same result. That is
// what makes the incremental map byte-identical to a from-scratch run
// (mapdb's equivalence mode asserts it). Every destination is checked on
// its own: one changed trace does not send the rest of its target live.
//
// Nothing expires: a trace replays for as long as its path signature and
// stop-set halt hold. A destination the round did not probe is forgotten.
//
// The alias stage has its own memory: the verdict every operation of the
// last stage recorded — a Mercator probe or a Resolve. An operation whose
// addresses appeared only in clean targets (Dataset.Dirty) replays by
// re-Recording its verdict, so the resolver's positive/negative maps — and
// therefore the alias graph the inference core consumes — are identical to
// a live run's.

// RoundState carries one vantage point's measurement memory across rounds.
// It is owned by a single Driver at a time and must not be shared between
// concurrently running drivers. The zero value is not usable; call
// NewRoundState.
type RoundState struct {
	// traces holds each destination's last trace. Entries the last round
	// did not write are deleted at its end, so every entry is that round's.
	traces map[netx.Addr]cachedTrace
	round  uint32 // the round that wrote the freshest entries

	// aliases maps each operation of the last alias stage to the verdict it
	// recorded.
	aliases map[aliasOp]alias.PairVerdict

	// owner enforces the single-driver contract at runtime. The fleet
	// coordinator moves a shard's state between workers; a scheduling bug
	// that let two drivers mutate one state concurrently would corrupt the
	// cache silently, so acquisition panics instead.
	owner atomic.Pointer[string]
}

// Acquire claims exclusive ownership of the state for the named driver,
// panicking if another holder has it. Release returns it. Drivers call
// this pair around Run; the panic is the loud version of the "owned by a
// single Driver at a time" doc contract above.
func (st *RoundState) Acquire(name string) {
	if !st.owner.CompareAndSwap(nil, &name) {
		holder := "?"
		if h := st.owner.Load(); h != nil {
			holder = *h
		}
		panic(fmt.Sprintf("scamper: RoundState for %q acquired while held by %q", name, holder))
	}
}

// Release gives up ownership taken by Acquire.
func (st *RoundState) Release() {
	st.owner.Store(nil)
}

// NewRoundState creates empty cross-round state for one vantage point.
func NewRoundState() *RoundState {
	return &RoundState{traces: make(map[netx.Addr]cachedTrace)}
}

// cachedTrace is one destination's trace, the path signature the world
// produced when it was recorded, and the round that recorded it.
type cachedTrace struct {
	rec   TraceRecord
	sig   uint64
	round uint32
}

// aliasOp names one alias-stage operation: a Mercator probe of a (b is
// zero) or a Resolve of the pair {a, b} (a < b).
type aliasOp struct {
	kind opKind
	a, b netx.Addr
}

type opKind uint8

const (
	opMercator opKind = iota
	opResolve
)

// replay returns dst's cached trace when a walk under stop would record it
// again on a path whose signature is still sig.
func (st *RoundState) replay(dst netx.Addr, sig uint64, stop map[netx.Addr]bool) (probe.TraceResult, bool) {
	ct, ok := st.traces[dst]
	if !ok || ct.sig != sig || !ct.rec.Repeats(stop) {
		return probe.TraceResult{}, false
	}
	return ct.rec.TraceResult, true
}

// fold writes one round's traces into the state, in place, and returns
// the addresses whose trace evidence changed and which targets are clean.
// A target is clean when it walked nothing live and replayed as
// many traces as it held last round. Every address on a target's new
// traces is dirty unless the target is clean, and so is every address on
// a last-round trace of a target that is not clean this round: a router
// can lose a trace without appearing in its replacement.
func (st *RoundState) fold(targets []Target, outs []targetOut) (map[netx.Addr]bool, []bool) {
	// targets is sorted by AS.
	index := func(as topo.ASN) int {
		i, ok := slices.BinarySearchFunc(targets, as, func(t Target, as topo.ASN) int { return cmp.Compare(t.AS, as) })
		if !ok {
			return -1
		}
		return i
	}
	held := make([]int, len(targets))
	for _, ct := range st.traces {
		if i := index(ct.rec.TargetAS); i >= 0 {
			held[i]++
		}
	}
	clean := make([]bool, len(targets))
	for i, o := range outs {
		clean[i] = o.cached == len(o.recs) && o.cached == held[i]
	}
	dirty := make(map[netx.Addr]bool)
	mark := func(rec *TraceRecord) {
		for _, h := range rec.Hops {
			if h.Type != probe.HopTimeout && !h.Addr.IsZero() {
				dirty[h.Addr] = true
			}
		}
	}
	for _, ct := range st.traces {
		if i := index(ct.rec.TargetAS); i < 0 || !clean[i] {
			mark(&ct.rec)
		}
	}
	st.round++
	for i, o := range outs {
		for j := range o.recs {
			if !clean[i] {
				mark(&o.recs[j])
			}
			st.traces[o.recs[j].Dst] = cachedTrace{rec: o.recs[j], sig: o.sigs[j], round: st.round}
		}
	}
	for dst, ct := range st.traces {
		if ct.round != st.round {
			delete(st.traces, dst)
		}
	}
	return dirty, clean
}
