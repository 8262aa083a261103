// Package alias implements the alias-resolution techniques bdrmap uses to
// collapse the interface-level traceroute graph into routers (§5.3):
//
//   - Ally: probes two addresses in an interleaved sequence and infers a
//     shared IP-ID counter when the merged samples form one increasing
//     sequence. Four probe methods (UDP, TCP, ICMP-echo, TTL-limited)
//     maximize the chance an address responds. Measurements repeat five
//     times at five-minute intervals, and the MIDAR-style monotonicity
//     requirement (non-overlapping samples must strictly increase) guards
//     against two independent counters that temporarily overlap. A round
//     in which an address's own samples are no counter (zero or random
//     IP-IDs) ends the pair Unknown, and the resolver skips every later
//     pair holding that address, as MIDAR's estimation stage sets such
//     addresses aside.
//   - Mercator: probes an unused UDP port and infers aliases when the ICMP
//     port-unreachable responses share a source address.
//
// The paper's third technique, Prefixscan (testing whether a traceroute
// address's /31 or /30 subnet mate is an alias of the previous hop), is
// not implemented: its mate is an address no trace observed, and no
// inference heuristic reads an alias of one.
//
// For one stage, the resolver asks each address each question once: it
// keeps what every address answered (the source of its UDP
// port-unreachable reply and the probe methods it replied to), so
// Mercator, the driver's sweep and Ally's method choice reuse an answer
// instead of probing again. Silence is never kept: a probe that got no
// reply is sent again the next time it is asked for. Across the vantage
// points of one host network, a Book carries the same durable evidence
// from one resolver to the next, so a fleet asks each question once.
//
// Verdicts feed a union-find constrained by negative evidence: transitive
// closure never merges sets containing a pair some measurement rejected.
package alias

import (
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
)

// Verdict is the outcome of an alias test.
type Verdict int8

// Verdicts.
const (
	Unknown Verdict = iota // no usable signal
	AliasYes
	AliasNo
)

func (v Verdict) String() string {
	switch v {
	case AliasYes:
		return "alias"
	case AliasNo:
		return "not-alias"
	default:
		return "unknown"
	}
}

// Config tunes the resolver; zero values select the paper's parameters.
type Config struct {
	AllyRounds int // default 5
}

func (c Config) withDefaults() Config {
	if c.AllyRounds == 0 {
		c.AllyRounds = 5
	}
	return c
}

// The rest of §5.3's Ally schedule is fixed.
const (
	allyInterval = 5 * time.Minute       // between the rounds of one pair
	probeGap     = 20 * time.Millisecond // between interleaved probes
	maxSpan      = 2000                  // widest IP-ID span of one interleaved sequence
	allySamples  = 6                     // probes in one interleaved sequence a,b,a,b,a,b
)

// Resolver drives alias-resolution measurements through a probe source
// from one vantage point, recording every verdict.
type Resolver struct {
	Src probe.Source
	Cfg Config

	// Trace receives pair-test provenance events (verdicts with the IP-ID
	// samples behind them). Nil disables them.
	Trace *obs.Tracer
	// Now supplies stage-relative simulated timestamps for trace events;
	// nil stamps zero (events still order by sequence number).
	Now func() int64
	// Book, when set, holds what other resolvers of the host network
	// already settled; the resolver consults it after its own evidence and
	// before the wire. Nil asks everything.
	Book *Book

	pos map[pairKey]bool
	neg map[pairKey]bool
	// blind holds the addresses an Ally round showed to have no IP-ID
	// counter (zero or random IP-IDs): Ally can decide no pair holding one.
	blind map[netx.Addr]bool
	// answers holds what each address answered in this stage; reused
	// counts the probes it or the book answered instead of the wire.
	answers map[netx.Addr]answer
	reused  int
	// booked counts the operations the book settled: sweep addresses it
	// held a UDP answer for and pairs it held a verdict on.
	booked int
	sent   Sent
}

// Sent counts the direct probes a resolver sent, by what each was for.
type Sent struct {
	Sweep    int // UDPSource: the driver's Mercator sweep
	Mercator int // Mercator's UDP probes of a pair
	Pick     int // Ally's choice of a method both addresses answer
	Ally     int // Ally's interleaved sequences
}

// answer is what one address answered: a bit per probe method it replied
// to, and the source of its UDP port-unreachable reply.
type answer struct {
	methods uint8
	udpFrom netx.Addr
}

const udpBit = uint8(1) << probe.MethodUDP

// NewResolver builds a resolver with the given configuration.
func NewResolver(src probe.Source, cfg Config) *Resolver {
	return &Resolver{
		Src: src, Cfg: cfg.withDefaults(),
		pos:     make(map[pairKey]bool),
		neg:     make(map[pairKey]bool),
		blind:   make(map[netx.Addr]bool),
		answers: make(map[netx.Addr]answer),
	}
}

// Reused returns how many probes the resolver's answers, or its book's,
// answered instead of the wire.
func (r *Resolver) Reused() int { return r.reused }

// BookHits returns how many operations the book settled without a probe:
// UDPSource calls it held an answer for, and Resolve calls it held a
// verdict for.
func (r *Resolver) BookHits() int { return r.booked }

// Sent returns the direct probes the resolver sent, by what each was for.
func (r *Resolver) Sent() Sent { return r.sent }

// ask reports whether a answers method m, and for UDP the source of its
// reply. It probes only when neither this resolver nor its book holds a's
// answer to m, counting the probe in *sent; a probe that got no reply is
// not kept, so the next ask sends it again.
func (r *Resolver) ask(a netx.Addr, m probe.Method, sent *int) (netx.Addr, bool) {
	bit := uint8(1) << m
	if ans := r.answers[a]; ans.methods&bit != 0 {
		r.reused++
		return ans.udpFrom, true
	}
	if ans := r.Book.answered(a); ans.methods&bit != 0 {
		r.reused++
		return ans.udpFrom, true
	}
	*sent++
	resp := r.Src.Probe(a, m)
	if !resp.OK {
		return 0, false
	}
	ans := r.answers[a]
	ans.methods |= bit
	if m == probe.MethodUDP {
		ans.udpFrom = resp.From
	}
	r.answers[a] = ans
	return ans.udpFrom, true
}

// UDPSource returns the source of a's UDP port-unreachable reply, probing
// only if a has answered UDP neither through this resolver nor its book.
// Its probes count as the sweep's.
func (r *Resolver) UDPSource(a netx.Addr) (netx.Addr, bool) {
	if r.answers[a].methods&udpBit == 0 && r.Book.answered(a).methods&udpBit != 0 {
		r.booked++
	}
	return r.ask(a, probe.MethodUDP, &r.sent.Sweep)
}

// Blind reports whether an Ally round through this resolver or its book's
// showed a to have no IP-ID counter.
func (r *Resolver) Blind(a netx.Addr) bool { return r.blind[a] || r.Book.isBlind(a) }

type pairKey [2]netx.Addr

func pkey(a, b netx.Addr) pairKey {
	if a < b {
		return pairKey{a, b}
	}
	return pairKey{b, a}
}

// NowNS returns the stage-relative simulated timestamp for trace events.
func (r *Resolver) NowNS() int64 {
	if r.Now != nil {
		return r.Now()
	}
	return 0
}

// emit records one pair-test provenance event. The subject is the
// canonically ordered "a|b" pair.
func (r *Resolver) emit(kind obs.Kind, a, b netx.Addr, evidence ...obs.Field) {
	if r.Trace == nil {
		return
	}
	k := pkey(a, b)
	r.Trace.Emit(kind, obs.OnPair(k[0], k[1]), r.NowNS(), evidence...)
}

// Record stores an externally derived verdict (e.g. the analytical aliases
// of §5.4.7).
func (r *Resolver) Record(a, b netx.Addr, v Verdict) {
	switch v {
	case AliasYes:
		r.pos[pkey(a, b)] = true
	case AliasNo:
		r.neg[pkey(a, b)] = true
	}
}

// Verdict returns the stored verdict for a pair.
func (r *Resolver) Verdict(a, b netx.Addr) Verdict {
	k := pkey(a, b)
	switch {
	case r.neg[k]: // negative evidence dominates (§5.3 "limit false aliases")
		return AliasNo
	case r.pos[k]:
		return AliasYes
	default:
		return Unknown
	}
}

// allyMethods is the order in which probe methods are attempted.
var allyMethods = []probe.Method{
	probe.MethodICMPEcho, probe.MethodUDP, probe.MethodTCPAck, probe.MethodTTLLimited,
}

// Ally runs the full repeated-Ally test on a pair and records the verdict.
// Per §5.3, measurements repeat at intervals and any round rejecting the
// shared-counter hypothesis makes the pair not-alias. A round that shows
// an address has no counter ends the test Unknown, since no later round
// can accept the pair, and a pair holding an address an earlier round
// showed blind is not probed at all.
func (r *Resolver) Ally(a, b netx.Addr) Verdict {
	if a == b {
		return AliasYes
	}
	if v := r.Verdict(a, b); v != Unknown {
		return v
	}
	if r.Blind(a) || r.Blind(b) {
		return Unknown
	}
	method, ok := r.pickMethod(a, b)
	if !ok {
		return Unknown
	}
	accepted := 0
	var ids [allySamples]uint16 // the last round's samples
	for round := 0; round < r.Cfg.AllyRounds; round++ {
		if round > 0 {
			r.Src.Advance(allyInterval)
		}
		switch r.allyOnce(a, b, method, &ids) {
		case roundYes:
			accepted++
		case roundBlind:
			return Unknown
		case roundNo:
			r.Record(a, b, AliasNo)
			// The IP-ID samples are volatile evidence: their values depend on
			// lane state, which varies across worker counts.
			r.emit(obs.KindAlly, a, b, obs.Str(obs.KeyVerdict, AliasNo.String()),
				obs.Str(obs.KeyMethod, method.String()), obs.Int(obs.KeyRound, round),
				obs.IDs(obs.KeyIPIDs, ids[:]))
			return AliasNo
		}
	}
	if accepted == r.Cfg.AllyRounds {
		r.Record(a, b, AliasYes)
		r.emit(obs.KindAlly, a, b, obs.Str(obs.KeyVerdict, AliasYes.String()),
			obs.Str(obs.KeyMethod, method.String()), obs.Int(obs.KeyRounds, accepted),
			obs.IDs(obs.KeyIPIDs, ids[:]))
		return AliasYes
	}
	return Unknown
}

// pickMethod finds the first method both addresses answer. It asks through
// the resolver's answers, so a method an address already answered costs no
// probe, and it does not ask b a method a was silent to.
func (r *Resolver) pickMethod(a, b netx.Addr) (probe.Method, bool) {
	for _, m := range allyMethods {
		if _, ok := r.ask(a, m, &r.sent.Pick); !ok {
			continue
		}
		if _, ok := r.ask(b, m, &r.sent.Pick); ok {
			return m, true
		}
	}
	return 0, false
}

// roundResult is what one interleaved Ally sequence shows.
type roundResult int8

const (
	roundLost  roundResult = iota // a response never arrived
	roundBlind                    // an address's own samples are not a counter
	roundYes                      // the merged samples form one counter
	roundNo                       // two counters
)

// allyOnce runs one interleaved sequence a,b,a,b,a,b into ids and applies
// the monotonicity test, marking blind every address whose own samples are
// not a counter. A sequence an address stopped answering is lost, and ids
// holds only its first samples.
func (r *Resolver) allyOnce(a, b netx.Addr, m probe.Method, ids *[allySamples]uint16) roundResult {
	for i := range ids {
		t := a
		if i%2 == 1 {
			t = b
		}
		r.sent.Ally++
		resp := r.Src.Probe(t, m)
		if !resp.OK {
			return roundLost
		}
		ids[i] = resp.IPID
		r.Src.Advance(probeGap)
	}
	// Each address's own subsequence must behave like a counter at all; a
	// router using zero or random IP-IDs gives no evidence either way (Ally
	// is blind, and §5.4.7's analytical step may later supply the aliases).
	blindA := !monotonic(ids[0], ids[2], ids[4])
	blindB := !monotonic(ids[1], ids[3], ids[5])
	if blindA {
		r.blind[a] = true
	}
	if blindB {
		r.blind[b] = true
	}
	if blindA || blindB {
		return roundBlind
	}
	// MIDAR-style: the merged samples must strictly increase (mod 2^16)
	// with a bounded total span — two distinct (per-router or
	// per-interface) counters fail this even though each is monotonic.
	var span uint16
	for i := 1; i < len(ids); i++ {
		d := ids[i] - ids[i-1]
		if d == 0 || d >= 1<<15 {
			return roundNo
		}
		span += d
		if span > maxSpan {
			return roundNo
		}
	}
	return roundYes
}

// monotonic reports whether three samples of one address look like a
// counter: strictly increasing with small steps (mod 2^16).
func monotonic(a, b, c uint16) bool {
	d1, d2 := b-a, c-b
	return d1 > 0 && d1 < 4096 && d2 > 0 && d2 < 4096
}

// Mercator tests whether UDP port-unreachable responses from both
// addresses share a common source. It does not probe b when a is silent:
// such a pair has no common source to show.
func (r *Resolver) Mercator(a, b netx.Addr) Verdict {
	if a == b {
		return AliasYes
	}
	fromA, ok := r.ask(a, probe.MethodUDP, &r.sent.Mercator)
	if !ok {
		return Unknown
	}
	fromB, ok := r.ask(b, probe.MethodUDP, &r.sent.Mercator)
	if !ok {
		return Unknown
	}
	if fromA == fromB {
		r.Record(a, b, AliasYes)
		r.emit(obs.KindMercator, a, b, obs.Str(obs.KeyVerdict, AliasYes.String()),
			obs.IP(obs.KeyFrom, fromA))
		return AliasYes
	}
	// Different sources — including both answering from the probed address
	// — carry no common-source signal either way.
	return Unknown
}

// Resolve runs Mercator and then Ally on a pair, returning the first
// conclusive verdict. A verdict the book holds settles the pair without a
// probe, and the resolver records it as its own.
func (r *Resolver) Resolve(a, b netx.Addr) Verdict {
	if v := r.Verdict(a, b); v != Unknown {
		return v
	}
	if v := r.Book.verdict(a, b); v != Unknown {
		r.booked++
		r.Record(a, b, v)
		return v
	}
	if v := r.Mercator(a, b); v == AliasYes {
		return v
	}
	return r.Ally(a, b)
}

// PairVerdict records the verdict one operation of the driver's alias
// stage left behind — the replay substrate for cross-round caching:
// re-Record()ing it reproduces the verdict without re-sending the
// operation's probes. It does not reproduce the blind set: a replayed
// operation sends nothing, so it marks no address blind, and a later live
// test may probe such an address once more than a from-scratch run would.
// A blind test ends Unknown, which Ally never records, so replay still
// restores every recorded verdict; the blind set moves packets only. Nor
// does it reproduce the resolver's answers (what each address replied to),
// which live for one stage like the blind set: a live test after a
// replayed operation may send a probe that a from-scratch run would have
// answered from them.
type PairVerdict struct {
	A, B netx.Addr
	V    Verdict
}

// Positives returns all pairs with a positive verdict.
func (r *Resolver) Positives() [][2]netx.Addr {
	out := make([][2]netx.Addr, 0, len(r.pos))
	for k := range r.pos {
		if !r.neg[k] {
			out = append(out, k)
		}
	}
	return out
}

// Negatives returns all pairs with a negative verdict.
func (r *Resolver) Negatives() [][2]netx.Addr {
	out := make([][2]netx.Addr, 0, len(r.neg))
	for k := range r.neg {
		out = append(out, k)
	}
	return out
}
