package probe

import (
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// HopType classifies a traceroute hop response.
type HopType int8

// Hop response types.
const (
	HopTimeout      HopType = iota // no response at this TTL
	HopTimeExceeded                // ICMP time exceeded
	HopEchoReply                   // ICMP echo reply (destination reached)
	HopUnreachable                 // ICMP destination unreachable
)

func (t HopType) String() string {
	switch t {
	case HopTimeExceeded:
		return "time-exceeded"
	case HopEchoReply:
		return "echo-reply"
	case HopUnreachable:
		return "unreachable"
	default:
		return "timeout"
	}
}

// Hop is one traceroute response as a prober sees it.
type Hop struct {
	TTL  int
	Addr netx.Addr // response source address; 0 on timeout
	Type HopType
	IPID uint16
	RTT  time.Duration // 0 on timeout
}

// TraceResult is a completed traceroute.
type TraceResult struct {
	VP   string
	Dst  netx.Addr
	Hops []Hop
	// Reached reports an echo reply from the destination.
	Reached bool
	// Stopped reports that the stop-set callback halted probing.
	Stopped bool
	// FaultDropped counts responses the fault injector suppressed during
	// this trace (they appear as timeouts in Hops).
	FaultDropped int
}

// gapLimit mirrors scamper's behaviour of abandoning a trace after five
// consecutive unresponsive hops.
const gapLimit = 5

// PacePerHop is the simulated pacing cost of one traceroute packet
// (~100 packets/second, the rate the paper's deployments probe at).
const PacePerHop = 10 * time.Millisecond

// Traceroute runs a Paris traceroute (ICMP-echo probes) from vp toward dst.
// stop, when non-nil, is consulted with each responding address: returning
// true halts the trace after recording that hop (the doubletree stop set,
// §5.3). It runs unpaced on the engine's own timeline, which stop must not
// touch.
func (e *Engine) Traceroute(vp *topo.VP, dst netx.Addr, stop func(netx.Addr) bool) TraceResult {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.traceroute(vp, dst, stop, e.own)
}

func (e *Engine) traceroute(vp *topo.VP, dst netx.Addr, stop func(netx.Addr) bool, lane *Lane) TraceResult {
	res := TraceResult{VP: vp.Name, Dst: dst}
	path := e.computePath(vp.Router, dst)
	if n := len(path.steps); n > 0 {
		res.Hops = make([]Hop, 0, n)
	}

	// oneWay is the delay from the VP to the router probed, at time
	// sumAt. It grows by one link per TTL and is summed from the steps
	// again only when the lane's clock moved mid-trace — time of day
	// selects the congestion episodes — so every hop's RTT is
	// pathRTT(path.steps[:i+1], lane.clock) and a trace costs O(hops).
	var oneWay, sumAt time.Duration
	// One packet is sent per hop recorded; byType counts the responses by
	// class. The engine's counters take the totals once, after the trace.
	var byType [HopUnreachable + 1]int64

	gap := 0
	for i, step := range path.steps {
		switch now := lane.clock; {
		case i == 0:
			sumAt = now
		case now != sumAt:
			oneWay, sumAt = e.oneWayDelay(path.steps[:i+1], now), now
		default:
			oneWay += e.hopDelay(path.steps, i-1, now)
		}
		hopRTT := 2 * (oneWay + responderCost)

		final := i == len(path.steps)-1
		hop := Hop{TTL: i + 1, Type: HopTimeout}

		if final && path.reached {
			// The probe reaches its destination; the destination (an
			// interface, or a host behind the prefix anchor) may answer
			// with an echo reply whose source is the probed address.
			if path.exactIface != nil && path.exactIface.Router == step.router.ID {
				if !step.router.Behavior.NoEchoReply && lane.allow(step.router) {
					hop.Type = HopEchoReply
					hop.Addr = dst
					hop.IPID = lane.nextIPID(step.router, path.exactIface)
				}
			} else if path.anchorReplies && lane.allow(step.router) {
				hop.Type = HopEchoReply
				hop.Addr = dst
				hop.IPID = lane.nextIPID(step.router, nil)
			}
			if hop.Type != HopEchoReply && path.reached && step.in != nil &&
				!step.router.Behavior.NoUDPUnreach && lane.allow(step.router) {
				// No host answers behind this prefix: the last router
				// reports the destination unreachable (§5.4.8 accepts
				// these alongside echo replies).
				hop.Type = HopUnreachable
				hop.Addr = step.in.Addr
				hop.IPID = lane.nextIPID(step.router, step.in)
			}
			if hop.Type != HopTimeout && e.dropInjected() {
				hop = Hop{TTL: i + 1, Type: HopTimeout}
				res.FaultDropped++
			}
			if hop.Type != HopTimeout {
				hop.RTT = hopRTT
				res.Reached = hop.Type == HopEchoReply
			}
			byType[hop.Type]++
			res.Hops = append(res.Hops, hop)
			break
		}

		// Intermediate hop: ICMP time exceeded per the router's behaviour.
		if !step.router.Behavior.NoTTLExpired && lane.allow(step.router) {
			src, ifc := e.ttlExpiredSource(vp, step)
			if !src.IsZero() {
				hop.Type = HopTimeExceeded
				hop.Addr = src
				hop.IPID = lane.nextIPID(step.router, ifc)
				hop.RTT = hopRTT
			}
		}
		if hop.Type != HopTimeout && e.dropInjected() {
			hop = Hop{TTL: i + 1, Type: HopTimeout}
			res.FaultDropped++
		}
		byType[hop.Type]++
		res.Hops = append(res.Hops, hop)
		if hop.Type == HopTimeout {
			if gap++; gap >= gapLimit {
				break
			}
			continue
		}
		gap = 0
		if stop != nil && stop(hop.Addr) {
			res.Stopped = true
			break
		}
	}

	sent := int64(len(res.Hops))
	answered := sent - byType[HopTimeout]
	e.eobs.traceroutes.Inc()
	e.eobs.packets.Add(sent)
	e.eobs.responses.Add(answered)
	e.eobs.respTimeExceeded.Add(byType[HopTimeExceeded])
	e.eobs.respEchoReply.Add(byType[HopEchoReply])
	e.eobs.respUnreachable.Add(byType[HopUnreachable])
	e.eobs.respTimeout.Add(byType[HopTimeout])
	e.eobs.faultDrops.Add(int64(res.FaultDropped))
	e.eobs.traceHops.Observe(sent)
	return res
}

// ttlExpiredSource selects the source address of a time-exceeded response
// (§4 challenges 1, 2, 4).
func (e *Engine) ttlExpiredSource(vp *topo.VP, step pathStep) (netx.Addr, *topo.Iface) {
	r := step.router
	switch {
	case r.Behavior.VirtualRouter && step.out != nil:
		// The virtual router that would have forwarded the packet
		// responds: source is the forward egress interface.
		return step.out.Addr, step.out
	case r.Behavior.SourceEgressToProbe:
		// RFC 1812 source selection: the interface transmitting the
		// response, i.e. the first link on this router's path back to
		// the prober. When the best route back runs via a third-party
		// AS that numbered the link, the response maps to that AS.
		back := e.computePath(r.ID, vp.Addr)
		if len(back.steps) > 0 && back.steps[0].out != nil {
			out := back.steps[0].out
			return out.Addr, out
		}
	}
	if step.in != nil {
		return step.in.Addr, step.in // ingress interface: the common case
	}
	// First router (the VP's attachment): respond with any interface.
	if a := r.CanonicalAddr(); !a.IsZero() {
		return a, nil
	}
	return 0, nil
}

// ---------------------------------------------------------------------------
// Direct probes (ping and alias resolution)

// Method is the probe type used against a single address.
type Method int8

// Probe methods, mirroring the probe types bdrmap's alias resolution uses
// (§5.3: "UDP, TCP, ICMP-echo, and TTL-limited probes").
const (
	MethodICMPEcho   Method = iota
	MethodUDP               // UDP to an unused high port (Mercator / Ally-udp)
	MethodTCPAck            // TCP ACK eliciting RST
	MethodTTLLimited        // TTL-limited probe eliciting time exceeded
)

func (m Method) String() string {
	switch m {
	case MethodICMPEcho:
		return "icmp-echo"
	case MethodUDP:
		return "udp"
	case MethodTCPAck:
		return "tcp-ack"
	case MethodTTLLimited:
		return "ttl-limited"
	default:
		return "unknown"
	}
}

// Response is a direct probe's result.
type Response struct {
	OK   bool
	From netx.Addr // source address of the response
	IPID uint16
	When time.Duration // simulated receive time
	RTT  time.Duration // round-trip time under the latency model
}

// Source issues single probes from one vantage point and paces
// measurement time between them: what alias resolution and TSLP need of a
// prober, local (scamper.LocalProber) or remote (§5.8).
type Source interface {
	Probe(target netx.Addr, m Method) Response
	Advance(d time.Duration)
}

// Probe sends one probe of the given method from vp to target, on the
// engine's own timeline.
func (e *Engine) Probe(vp *topo.VP, target netx.Addr, m Method) Response {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.probe(vp, target, m, e.own)
}

func (e *Engine) probe(vp *topo.VP, target netx.Addr, m Method, lane *Lane) Response {
	e.eobs.probes.Inc()
	e.eobs.packets.Inc()

	path := e.computePath(vp.Router, target)
	if !path.reached || path.exactIface == nil {
		return Response{}
	}
	r := e.Net.Router(path.exactIface.Router)
	if r == nil || !lane.allow(r) {
		return Response{}
	}
	b := r.Behavior

	// The source of an echo reply (or a RST) is the probed destination
	// address, regardless of which interface it sits on (§4 challenge 2).
	from := target
	switch m {
	case MethodICMPEcho, MethodTCPAck:
		if b.NoEchoReply {
			return Response{}
		}
	case MethodUDP:
		if b.NoUDPUnreach {
			return Response{}
		}
		if b.MercatorCanonical {
			from = r.CanonicalAddr() // Mercator's common-source signal
		}
	case MethodTTLLimited:
		if b.NoTTLExpired {
			return Response{}
		}
		// A probe sent toward target with TTL set to expire at its
		// router: the time-exceeded source follows ingress selection.
		if last := path.steps[len(path.steps)-1]; last.in != nil {
			from = last.in.Addr
		}
	default:
		return Response{}
	}
	resp := Response{OK: true, From: from, IPID: lane.nextIPID(r, path.exactIface)}
	if e.dropInjected() {
		e.eobs.faultDrops.Inc()
		return Response{}
	}
	resp.When = lane.clock
	resp.RTT = e.pathRTT(path.steps, resp.When)
	e.eobs.responses.Inc()
	return resp
}

// Reachable reports whether direct probes from vp can be delivered to
// target at all (used by tests; a real prober learns this by probing).
func (e *Engine) Reachable(vp *topo.VP, target netx.Addr) bool {
	p := e.computePath(vp.Router, target)
	return p.reached && p.exactIface != nil
}

// ---------------------------------------------------------------------------
// IP-ID generation and rate limiting

type ipidState struct {
	base    uint16
	bgRate  float64 // background increments per second (traffic the router sends)
	sent    uint32
	perIfc  map[netx.Addr]uint16 // made on a per-interface router's first draw
	rndSeed uint32
}

// newIPIDState seeds the per-router IP-ID generator state.
func newIPIDState(id topo.RouterID) *ipidState {
	return &ipidState{
		base:    uint16(uint32(id)*2654435761 + 17),
		bgRate:  20 + float64(uint32(id)%180),
		rndSeed: uint32(id)*2246822519 + 3,
	}
}

// next draws the next IP-ID per the router's discipline at simulated time
// now. The caller must guarantee exclusive access to st.
func (st *ipidState) next(r *topo.Router, ifc *topo.Iface, now time.Duration) uint16 {
	switch r.Behavior.IPID {
	case topo.IPIDShared:
		// One central counter advanced by everything the router sends,
		// including background traffic proportional to elapsed time.
		bg := uint16(uint64(st.bgRate*now.Seconds()) & 0xffff)
		st.sent++
		return st.base + bg + uint16(st.sent)
	case topo.IPIDPerIface:
		key := netx.Addr(0)
		if ifc != nil {
			key = ifc.Addr
		}
		if st.perIfc == nil {
			st.perIfc = make(map[netx.Addr]uint16)
		}
		st.perIfc[key]++
		bg := uint16(uint64(st.bgRate*now.Seconds()) & 0xffff)
		return uint16(uint32(key)*40503) + bg + st.perIfc[key]
	case topo.IPIDRandom:
		st.rndSeed = st.rndSeed*1664525 + 1013904223
		return uint16(st.rndSeed >> 16)
	default: // IPIDZero
		return 0
	}
}

type rateState struct {
	window int64 // second index
	count  int
}

// allow applies the per-second budget at simulated time now. The caller
// must guarantee exclusive access to st.
func (st *rateState) allow(limit int, now time.Duration) bool {
	sec := int64(now / time.Second)
	if st.window != sec {
		st.window = sec
		st.count = 0
	}
	if st.count >= limit {
		return false
	}
	st.count++
	return true
}
