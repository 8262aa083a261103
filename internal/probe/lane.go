package probe

import (
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// Lane is one vantage point's measurement timeline: a virtual clock plus
// the per-router IP-ID and rate-limit state that responses accrue on it.
// Ally compares IP-ID samples taken on one timeline, and every caller that
// measures opens a lane of its own: each of the scamper driver's workers,
// its alias stage, a monitor, a §5.8 agent. On a shared timeline the
// interleaving of goroutines would leak into IP-ID values, rate-limit
// windows and RTTs; on lanes every trace's outcome is a pure function of
// (destination, lane schedule), however the scheduler interleaves them.
//
// Trace advances the lane by PacePerHop per probe packet, modelling the
// ~100 packets/second pacing of the paper's deployments; the driver takes
// the latest lane end time as the run's simulated duration (wall-clock of a
// real parallel deployment = the slowest worker's timeline).
//
// A Lane must not be shared between goroutines.
type Lane struct {
	e     *Engine
	vp    *topo.VP
	clock time.Duration

	// routers holds each router's state by RouterID and windows the
	// rate-limit windows routers have opened, in the order they opened
	// them; both are made on the lane's first response. A per-interface
	// IP-ID router counts in perIfc instead.
	routers []routerState
	windows []rateWindow
	perIfc  map[ifcKey]uint16

	// targets holds the last two direct-probe destinations the lane
	// resolved; older is the slot the next one replaces. Ally interleaves
	// two addresses, so the ≈34 packets of one pair resolve two targets.
	targets [2]target
	older   int
}

// routerState is what one router's responses have accrued on a lane.
type routerState struct {
	drawn  uint32 // IP-IDs drawn from the router's shared or random counter
	rnd    uint32 // the random discipline's generator, seeded by the first draw
	window int32  // 1 + the router's index in Lane.windows; 0 before its first limited response
}

type rateWindow struct {
	sec   int64 // the one-second window counted
	count int32 // responses sent in it
}

type ifcKey struct {
	r    topo.RouterID
	addr netx.Addr // 0 for a response no interface sourced
}

// NewLane opens a timeline for vp whose clock starts at start.
func (e *Engine) NewLane(vp *topo.VP, start time.Duration) *Lane {
	return &Lane{e: e, vp: vp, clock: start}
}

// Now returns the lane's virtual clock.
func (l *Lane) Now() time.Duration { return l.clock }

// Advance moves the lane's clock forward by d.
func (l *Lane) Advance(d time.Duration) { l.clock += d }

// Trace runs a Paris traceroute (ICMP-echo probes) toward dst and then
// paces the lane's clock forward by PacePerHop per packet sent. A
// time-exceeded hop from an address in stop halts the trace after
// recording it (doubletree's global stop set, §5.3); a nil stop never
// halts. A non-nil prior is the local stop set: the walk resumes at
// len(prior)+1 and copies prior below the first hop it matches there or
// backward of it (see Engine.traceroute); a nil prior walks from TTL 1.
func (l *Lane) Trace(dst netx.Addr, stop map[netx.Addr]bool, prior []Hop) TraceResult {
	res := l.e.traceroute(l.vp, dst, stop, prior, l)
	l.clock += time.Duration(res.Sent) * PacePerHop
	return res
}

// Probe sends one probe of method m toward target.
func (l *Lane) Probe(target netx.Addr, m Method) Response {
	return l.e.probe(l.vp, target, m, l)
}

// RouterTable is the storage of a lane's per-router state, which whoever
// opens many lanes keeps between them: Release takes it from a lane that
// is done, cleared, and Adopt gives it to a lane about to start, so one
// table serves lane after lane instead of each lane making its own.
type RouterTable struct{ routers []routerState }

// Adopt gives the lane t's storage for its per-router table when it is
// large enough for the world and the lane has no table yet.
func (l *Lane) Adopt(t RouterTable) {
	if n := len(l.e.Net.Routers); l.routers == nil && cap(t.routers) >= n {
		l.routers = t.routers[:n]
	}
}

// Release takes the lane's per-router table back, cleared. A lane that
// responds after it makes a table of its own.
func (l *Lane) Release() RouterTable {
	t := RouterTable{l.routers}
	clear(t.routers)
	l.routers = nil
	return t
}

// state returns r's state on the lane, making the lane's table on its
// first response unless it adopted one: the world is frozen for the
// plane's lifetime, so the table never grows.
func (l *Lane) state(r topo.RouterID) *routerState {
	if l.routers == nil {
		l.routers = make([]routerState, len(l.e.Net.Routers))
	}
	return &l.routers[r]
}

// nextIPID draws the next IP-ID for a response from r on interface ifc
// (ifc may be nil), per the router's IP-ID discipline. A counter starts at
// a base and advances at a background rate, both derived from the router's
// ID, so the lane stores only what the draws themselves changed.
func (l *Lane) nextIPID(r *topo.Router, ifc *topo.Iface) uint16 {
	id := uint32(r.ID)
	switch r.Behavior.IPID {
	case topo.IPIDShared:
		// One central counter advanced by everything the router sends,
		// including background traffic proportional to elapsed time.
		st := l.state(r.ID)
		st.drawn++
		return uint16(id*2654435761+17) + background(id, l.clock) + uint16(st.drawn)
	case topo.IPIDPerIface:
		key := ifcKey{r: r.ID}
		if ifc != nil {
			key.addr = ifc.Addr
		}
		if l.perIfc == nil {
			l.perIfc = make(map[ifcKey]uint16)
		}
		n := l.perIfc[key] + 1
		l.perIfc[key] = n
		return uint16(uint32(key.addr)*40503) + background(id, l.clock) + n
	case topo.IPIDRandom:
		st := l.state(r.ID)
		if st.drawn == 0 {
			st.rnd = id*2246822519 + 3
		}
		st.drawn++
		st.rnd = st.rnd*1664525 + 1013904223
		return uint16(st.rnd >> 16)
	default: // IPIDZero
		return 0
	}
}

// background is how far a counter's background traffic has moved it by
// simulated time now.
func background(id uint32, now time.Duration) uint16 {
	rate := 20 + float64(id%180) // increments per second
	return uint16(uint64(rate*now.Seconds()) & 0xffff)
}

// allow applies the router's ICMP rate limit: a budget of RateLimitPPS
// responses per second of the lane's clock.
func (l *Lane) allow(r *topo.Router) bool {
	limit := r.Behavior.RateLimitPPS
	if limit <= 0 {
		return true
	}
	st := l.state(r.ID)
	if st.window == 0 {
		l.windows = append(l.windows, rateWindow{})
		st.window = int32(len(l.windows))
	}
	w := &l.windows[st.window-1]
	if sec := int64(l.clock / time.Second); w.sec != sec {
		*w = rateWindow{sec: sec}
	}
	if int(w.count) >= limit {
		l.e.eobs.rateLimitDrops.Inc()
		return false
	}
	w.count++
	return true
}

// target is a direct probe's destination as the lane resolved it from one
// router: the walk toward it, the router that answers, and the walk's
// one-way delay before queueing. None of it changes for the plane's
// lifetime; only the response is drawn per packet.
type target struct {
	start topo.RouterID
	addr  netx.Addr
	full  bool // false in an empty slot
	path  walk
	r     *topo.Router // the router holding addr; nil when direct probes cannot reach it
	base  time.Duration
}

// target returns addr resolved from router start, resolving it when it is
// neither of the lane's last two.
func (l *Lane) target(start topo.RouterID, addr netx.Addr) *target {
	for i := range l.targets {
		if t := &l.targets[i]; t.full && t.addr == addr && t.start == start {
			l.older = 1 - i
			return t
		}
	}
	t := &l.targets[l.older]
	l.older = 1 - l.older
	*t = target{start: start, addr: addr, full: true, path: l.e.computePath(start, addr)}
	if t.path.reached && t.path.exact != nil {
		t.r = l.e.Net.Router(t.path.exact.Router)
		t.base = l.e.baseDelay(t.path.steps)
	}
	return t
}
