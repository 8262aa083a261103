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

// Hop is one traceroute response as a prober sees it. A walk is at most
// maxRouterHops+1 steps, so its TTL fits a byte, and the fields are laid
// out to take 16 bytes.
type Hop struct {
	TTL  uint8
	Type HopType
	IPID uint16
	Addr netx.Addr     // response source address; 0 on timeout
	RTT  time.Duration // 0 on timeout
}

// TraceResult is a completed traceroute.
type TraceResult struct {
	Dst  netx.Addr
	Hops []Hop
	// Reached reports an echo reply from the destination.
	Reached bool
	// Stopped reports that the stop-set callback halted probing.
	Stopped bool
	// Spliced is how many of Hops, from TTL 1, were copied from the prior
	// trace the walk resumed from rather than probed; Sent is how many
	// packets the walk sent. Both fit the struct's padding, so a trace
	// costs no more to hold for them.
	Spliced uint8
	Sent    uint8
}

// gapLimit mirrors scamper's behaviour of abandoning a trace after five
// consecutive unresponsive hops.
const gapLimit = 5

// PacePerHop is the simulated pacing cost of one traceroute packet
// (~100 packets/second, the rate the paper's deployments probe at).
const PacePerHop = 10 * time.Millisecond

// halts is the stop rule: a walk under stop halts after recording h when
// h is a time-exceeded hop from an address in stop. The destination's own
// reply ends the walk anyway and is never checked.
func halts(h Hop, stop map[netx.Addr]bool) bool {
	return h.Type == HopTimeExceeded && stop[h.Addr]
}

// Repeats reports whether walking r's path again under stop would record
// r again: the walk halts at r's last hop if r stopped, and at no hop if
// it did not. On an unchanged path (Engine.PathSignature) such a walk
// returns r's hops and Stopped flag, so r can stand in for it.
func (r *TraceResult) Repeats(stop map[netx.Addr]bool) bool {
	for i, h := range r.Hops {
		if halts(h, stop) {
			return r.Stopped && i == len(r.Hops)-1
		}
	}
	return !r.Stopped
}

// traceroute walks a Paris traceroute from vp toward dst on lane, halting
// after a time-exceeded hop from an address in stop (the global stop set).
//
// prior is doubletree's local stop set: an earlier trace's hops, TTL 1 on,
// cut before the TTL the walk resumes at. The walk probes the resume TTL
// (len(prior)+1, clamped to the path) first, then backward until a hop
// answers time-exceeded from the address prior recorded at its TTL, copies
// prior below that hop, and goes on forward. The end rules — the gap
// limit, the stop set, the destination — apply to the hops in TTL order,
// so the walk records what one from TTL 1 would; a nil prior is that walk.
// Every hop is priced at the lane's clock when the walk starts.
func (e *Engine) traceroute(vp *topo.VP, dst netx.Addr, stop map[netx.Addr]bool, prior []Hop, lane *Lane) TraceResult {
	res := TraceResult{Dst: dst}
	path := e.computePath(vp.Router, dst)
	steps := path.steps
	// byType counts the responses by class, one packet each. The engine's
	// counters take the totals once, after the trace.
	var byType [HopUnreachable + 1]int64
	now := lane.clock
	send := func(i int, oneWay time.Duration) Hop {
		h := e.respond(vp, dst, &path, i, lane)
		if h.Type != HopTimeout {
			h.RTT = 2 * (oneWay + responderCost)
		}
		byType[h.Type]++
		return h
	}

	if n := len(steps); n > 0 {
		r := min(len(prior), n-1) // the resume step's index
		res.Hops = make([]Hop, r+1, n)
		// oneWay is the delay from the VP to the router at the resume
		// step; a step back subtracts one link, a step forward adds one.
		var oneWay time.Duration
		for i := range r {
			oneWay += e.hopDelay(steps, i, now)
		}
		spliced := 0
		for i, d := r, oneWay; ; i-- {
			h := send(i, d)
			res.Hops[i] = h
			if i < len(prior) && h.Type == HopTimeExceeded && prior[i].Type == HopTimeExceeded && prior[i].Addr == h.Addr {
				spliced = copy(res.Hops, prior[:i])
				break
			}
			if i == 0 {
				break
			}
			d -= e.hopDelay(steps, i-1, now)
		}
		res.Sent = uint8(r + 1 - spliced)

		// A full walk's end rules, in TTL order: to the hops recorded so
		// far, then to each hop probed forward.
		i, gap := 0, 0
		for ; ; i++ {
			if i > r {
				oneWay += e.hopDelay(steps, i-1, now)
				res.Hops = append(res.Hops, send(i, oneWay))
				res.Sent++
			}
			if h := &res.Hops[i]; h.Type == HopTimeout {
				if gap++; gap >= gapLimit {
					break
				}
			} else if gap = 0; halts(*h, stop) {
				res.Stopped = true
				break
			}
			if i == n-1 {
				break
			}
		}
		res.Hops = res.Hops[:i+1]
		res.Spliced = uint8(min(spliced, len(res.Hops)))
		res.Reached = res.Hops[len(res.Hops)-1].Type == HopEchoReply
	}

	sent := int64(res.Sent)
	answered := sent - byType[HopTimeout]
	e.eobs.traceroutes.Inc()
	e.eobs.packets.Add(sent)
	e.eobs.responses.Add(answered)
	e.eobs.respTimeExceeded.Add(byType[HopTimeExceeded])
	e.eobs.respEchoReply.Add(byType[HopEchoReply])
	e.eobs.respUnreachable.Add(byType[HopUnreachable])
	e.eobs.respTimeout.Add(byType[HopTimeout])
	e.eobs.traceHops.Observe(sent)
	return res
}

// respond is the answer to the probe that expires at path step i: a
// time-exceeded hop at an intermediate step, the destination's echo reply
// or the last router's unreachable at the final one, or a timeout. The
// caller prices an answer's RTT.
func (e *Engine) respond(vp *topo.VP, dst netx.Addr, path *walk, i int, lane *Lane) Hop {
	r, in, _ := e.at(path.steps[i])
	hop := Hop{TTL: uint8(i + 1), Type: HopTimeout}
	if i == len(path.steps)-1 && path.reached {
		// The probe reaches its destination; the destination (an
		// interface, or a host behind the prefix anchor) may answer
		// with an echo reply whose source is the probed address.
		if path.exact != nil && path.exact.Router == r.ID {
			if !r.Behavior.NoEchoReply && lane.allow(r) {
				hop.Type = HopEchoReply
				hop.Addr = dst
				hop.IPID = lane.nextIPID(r, path.exact)
			}
		} else if path.anchorReplies && lane.allow(r) {
			hop.Type = HopEchoReply
			hop.Addr = dst
			hop.IPID = lane.nextIPID(r, nil)
		}
		if hop.Type != HopEchoReply && in != nil &&
			!r.Behavior.NoUDPUnreach && lane.allow(r) {
			// No host answers behind this prefix: the last router
			// reports the destination unreachable (§5.4.8 accepts
			// these alongside echo replies).
			hop.Type = HopUnreachable
			hop.Addr = in.Addr
			hop.IPID = lane.nextIPID(r, in)
		}
	} else if !r.Behavior.NoTTLExpired && lane.allow(r) {
		// Intermediate hop: ICMP time exceeded per the router's behaviour.
		if src, ifc := e.ttlExpiredSource(vp, r, in); !src.IsZero() {
			hop.Type = HopTimeExceeded
			hop.Addr = src
			hop.IPID = lane.nextIPID(r, ifc)
		}
	}
	if hop.Type != HopTimeout && e.dropInjected() {
		hop = Hop{TTL: uint8(i + 1), Type: HopTimeout}
		e.eobs.faultDrops.Inc()
	}
	return hop
}

// ttlExpiredSource selects the source address of a time-exceeded response
// from router r, which the probe entered by in (§4 challenges 1, 2).
func (e *Engine) ttlExpiredSource(vp *topo.VP, r *topo.Router, in *topo.Iface) (netx.Addr, *topo.Iface) {
	if r.Behavior.SourceEgressToProbe {
		// RFC 1812 source selection: the interface transmitting the
		// response, i.e. the first link on this router's path back to
		// the prober. When the best route back runs via a third-party
		// AS that numbered the link, the response maps to that AS.
		back := e.computePath(r.ID, vp.Addr)
		if len(back.steps) > 0 {
			if _, _, out := e.at(back.steps[0]); out != nil {
				return out.Addr, out
			}
		}
	}
	if in != nil {
		return in.Addr, in // ingress interface: the common case
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
// measurement time between them, on one timeline: what alias resolution and
// TSLP need of a timeline. A Lane is one; so is a §5.8 device session
// (scamper.RemoteProber).
type Source interface {
	Probe(target netx.Addr, m Method) Response
	Advance(d time.Duration)
}

func (e *Engine) probe(vp *topo.VP, addr netx.Addr, m Method, lane *Lane) Response {
	e.eobs.probes.Inc()
	e.eobs.packets.Inc()

	t := lane.target(vp.Router, addr)
	r := t.r
	if r == nil || !lane.allow(r) {
		return Response{}
	}
	b := r.Behavior

	// The source of an echo reply (or a RST) is the probed destination
	// address, regardless of which interface it sits on (§4 challenge 2).
	from := addr
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
		if _, in, _ := e.at(t.path.steps[len(t.path.steps)-1]); in != nil {
			from = in.Addr
		}
	default:
		return Response{}
	}
	resp := Response{OK: true, From: from, IPID: lane.nextIPID(r, t.path.exact)}
	if e.dropInjected() {
		e.eobs.faultDrops.Inc()
		return Response{}
	}
	resp.When = lane.clock
	resp.RTT = 2 * (t.base + e.queueDelays(t.path.steps, resp.When) + responderCost)
	e.eobs.responses.Inc()
	return resp
}

// Reachable reports whether direct probes from vp can be delivered to
// target at all (used by tests; a real prober learns this by probing).
func (e *Engine) Reachable(vp *topo.VP, target netx.Addr) bool {
	p := e.computePath(vp.Router, target)
	return p.reached && p.exact != nil
}
