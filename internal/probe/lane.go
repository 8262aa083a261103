package probe

import (
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// Lane is a measurement timeline: a virtual clock plus the per-router
// IP-ID and rate-limit state that responses accrue on it. The engine runs
// Traceroute and Probe on one of its own behind its lock. The scamper
// driver probes target ASes from several workers at once; on one timeline
// the interleaving of goroutines would leak into IP-ID values, rate-limit
// windows and RTTs, making two runs of the same world differ at the byte
// level, so each worker opens a lane of its own (starting at the engine
// clock's value when the run began) and every trace's outcome is a pure
// function of (destination, lane schedule) — identical no matter how the
// scheduler interleaves workers.
//
// TracerouteLane advances the lane by PacePerHop per probe packet,
// modelling the ~100 packets/second pacing of the paper's deployments; the
// driver takes the latest lane end time as the run's simulated duration
// (wall-clock of a real parallel deployment = the slowest worker's
// timeline).
//
// A Lane must not be shared between goroutines.
type Lane struct {
	e     *Engine
	clock time.Duration
	ipid  map[topo.RouterID]*ipidState
	rate  map[topo.RouterID]*rateState
}

// NewLane creates a lane whose clock starts at start (normally the shared
// engine clock when the measurement run begins).
func (e *Engine) NewLane(start time.Duration) *Lane {
	return &Lane{
		e:     e,
		clock: start,
		ipid:  make(map[topo.RouterID]*ipidState),
		rate:  make(map[topo.RouterID]*rateState),
	}
}

// Now returns the lane's virtual clock.
func (l *Lane) Now() time.Duration { return l.clock }

// nextIPID draws the next IP-ID for a response from r on interface ifc
// (ifc may be nil), per the router's IP-ID discipline.
func (l *Lane) nextIPID(r *topo.Router, ifc *topo.Iface) uint16 {
	st := l.ipid[r.ID]
	if st == nil {
		st = newIPIDState(r.ID)
		l.ipid[r.ID] = st
	}
	return st.next(r, ifc, l.clock)
}

// allow applies the router's ICMP rate limit.
func (l *Lane) allow(r *topo.Router) bool {
	if r.Behavior.RateLimitPPS <= 0 {
		return true
	}
	st := l.rate[r.ID]
	if st == nil {
		st = &rateState{}
		l.rate[r.ID] = st
	}
	ok := st.allow(r.Behavior.RateLimitPPS, l.clock)
	if !ok {
		l.e.eobs.rateLimitDrops.Inc()
	}
	return ok
}

// TracerouteLane runs a Paris traceroute on lane's timeline — the engine's
// own when lane is nil — and then paces that clock forward by PacePerHop per
// packet sent. A worker's lane leaves the engine's clock untouched; the
// driver advances it once, deterministically, after all lanes complete.
func (e *Engine) TracerouteLane(vp *topo.VP, dst netx.Addr, stop func(netx.Addr) bool, lane *Lane) TraceResult {
	if lane == nil {
		e.mu.Lock()
		defer e.mu.Unlock()
		lane = e.own
	}
	res := e.traceroute(vp, dst, stop, lane)
	lane.clock += time.Duration(len(res.Hops)) * PacePerHop
	return res
}
