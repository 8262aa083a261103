package scamper

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"strconv"
	"sync/atomic"

	"bdrmap/internal/alias"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// Cross-round measurement memory (the incremental round engine).
//
// The paper's doubletree stop set (§5.2) exists so repeated probing does
// not re-walk unchanged paths. A RoundState extends that memory across
// rounds: per target AS it keeps the full probing transcript of the last
// walk — every destination probed, the trace it produced, and a path
// signature (probe.Engine.PathSignature) capturing the hop sequence the
// world would produce for that destination today. Round N+1 replays the
// transcript destination by destination while the signatures still match:
// a replayed trace costs zero probe packets, re-derives the same stop-set
// entries, and drives the §5.3 retry rule through exactly the control flow
// a from-scratch walk would take. The first signature mismatch abandons
// the replay and probes the rest of the target live, seeded with the
// stop-set state the replayed prefix accumulated — which, by induction, is
// the state a scratch walk would have reached at the same point. That
// prefix-replay discipline is what makes the incremental map byte-identical
// to a from-scratch run (mapdb's equivalence mode asserts it).
//
// Nothing expires: a transcript replays for as long as its block plan and
// every replayed destination's path signature hold, and a changed path is
// caught by the signature of the trace that crosses it.
//
// The alias stage has its own memory: one flat log of the pair verdicts
// every alias operation of the last stage recorded — a Mercator probe or a
// Resolve — and a map from each operation to its range of
// that log. An operation whose addresses appeared only in fully-replayed
// targets replays by re-Recording its verdicts in order, so the resolver's
// positive/negative maps — and therefore the alias graph the inference
// core consumes — are identical to a live run's.

// RoundState carries one vantage point's measurement memory across rounds.
// It is owned by a single Driver at a time and must not be shared between
// concurrently running drivers. The zero value is not usable; call
// NewRoundState.
type RoundState struct {
	targets map[topo.ASN]*targetMemo

	// ops maps each operation of the last alias stage to the verdicts it
	// recorded, log[lo:hi].
	ops map[aliasOp]opRange
	log []alias.PairVerdict

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
	return &RoundState{targets: make(map[topo.ASN]*targetMemo)}
}

// targetMemo is the cached probing transcript of one target AS.
type targetMemo struct {
	blocksKey uint64        // fingerprint of the §5.3 block plan
	traces    []cachedTrace // in schedule order
}

// cachedTrace is one destination's position in the schedule, its trace,
// and the path signature the world produced when it was recorded.
type cachedTrace struct {
	blockIdx int
	dst      netx.Addr
	sig      uint64
	rec      TraceRecord
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

// opRange is where an operation's verdicts sit in its stage's log. A
// Mercator probe records its hit ({a, source, AliasYes}) or nothing, a
// Resolve its one verdict.
type opRange struct{ lo, hi int32 }

// blocksKey fingerprints a target's block plan; a changed plan (the BGP
// view moved a prefix) invalidates the whole transcript.
func blocksKey(blocks []netx.Block) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, b := range blocks {
		binary.LittleEndian.PutUint64(buf[:8], uint64(b.First))
		binary.LittleEndian.PutUint64(buf[8:], uint64(b.Last))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// targetReplay drives one target's replay during one round. The prior
// transcript is consumed strictly in schedule order; the first mismatch
// (position or signature) diverges and everything after runs live.
type targetReplay struct {
	sp    LocalProber
	prior *targetMemo   // validated transcript to replay; nil → all live
	all   []cachedTrace // the pre-existing transcript even when not replayable

	cursor   int
	diverged bool
	hits     int
	live     int
	next     *targetMemo // transcript being built this round
}

// take returns the cached trace for schedule position (blockIdx, dst) when
// the replay is still aligned and the destination's path signature is
// unchanged. Any mismatch diverges the replay permanently.
func (rp *targetReplay) take(blockIdx int, dst netx.Addr) (cachedTrace, bool) {
	if rp.diverged || rp.prior == nil || rp.cursor >= len(rp.prior.traces) {
		rp.diverged = true
		return cachedTrace{}, false
	}
	ct := rp.prior.traces[rp.cursor]
	if ct.blockIdx != blockIdx || ct.dst != dst || rp.sp.PathSignature(dst) != ct.sig {
		rp.diverged = true
		return cachedTrace{}, false
	}
	rp.cursor++
	rp.hits++
	return ct, true
}

// record appends one trace (replayed or live) to this round's transcript.
func (rp *targetReplay) record(blockIdx int, dst netx.Addr, sig uint64, rec TraceRecord) {
	rp.next.traces = append(rp.next.traces, cachedTrace{
		blockIdx: blockIdx, dst: dst, sig: sig, rec: rec,
	})
}

// fullHit reports whether the whole target was served from cache: every
// cached trace replayed, nothing probed live.
func (rp *targetReplay) fullHit() bool {
	return rp.prior != nil && !rp.diverged && rp.live == 0 &&
		rp.cursor == len(rp.prior.traces)
}

// TraceFingerprint hashes the dataset's traces down to one value: FNV-1a
// over the sorted (target AS, destination, hop path) lines, with the
// stop-set truncation flag. IP-IDs and RTTs are deliberately excluded —
// they are responder state, vary across worker counts and rounds, and are
// never consumed by inference. Replayed traces therefore contribute
// exactly what their live counterparts would, which makes this the
// trace-level identity the incremental equivalence mode compares.
//
// A line is "AS<target>|<dst>|<path>" plus "|s" when stopped, and lines
// hash in their text order. They are rendered into one buffer and sorted
// as spans of it: a round fingerprints every VP's transcript, and a string
// per trace was a quarter of that round's garbage.
func (ds *Dataset) TraceFingerprint() uint64 {
	type line struct{ lo, hi int } // buf[lo:hi], then its newline
	buf := make([]byte, 0, 128*len(ds.Traces))
	lines := make([]line, 0, len(ds.Traces))
	var hops []obs.Hop
	for _, tr := range ds.Traces {
		lo := len(buf)
		buf = strconv.AppendUint(append(buf, "AS"...), uint64(tr.TargetAS), 10)
		buf = tr.Dst.AppendTo(append(buf, '|'))
		hops = appendHops(hops[:0], tr.Hops)
		buf = obs.AppendPath(append(buf, '|'), hops)
		if tr.Stopped {
			buf = append(buf, "|s"...)
		}
		lines = append(lines, line{lo, len(buf)})
		buf = append(buf, '\n')
	}
	slices.SortFunc(lines, func(a, b line) int { return bytes.Compare(buf[a.lo:a.hi], buf[b.lo:b.hi]) })
	h := fnv.New64a()
	for _, l := range lines {
		h.Write(buf[l.lo : l.hi+1])
	}
	return h.Sum64()
}
