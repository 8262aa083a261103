package probe

import (
	"sync"
	"sync/atomic"
	"time"

	"bdrmap/internal/topo"
)

// Latency model: every link crossing costs a propagation delay derived
// from the geographic distance between its endpoints plus a small
// serialization cost; congested links add queueing delay that varies with
// simulated time of day. This is the substrate for the time-series latency
// probing (TSLP) application of §2 — the CAIDA/MIT interdomain congestion
// project this system was built to serve.

// CongestionEpisode adds queueing delay on one link during a recurring
// daily window. Start and End are offsets within a 24h day of simulated
// time; Queue is the added delay at the episode's peak.
type CongestionEpisode struct {
	Link  *topo.Link
	Start time.Duration // offset into the simulated day
	End   time.Duration
	Queue time.Duration // peak added queueing delay
}

// latencyState publishes the injected episodes as an immutable slice:
// every link crossing of every probe reads it, so readers take one atomic
// load and no lock; mu orders the writers, which copy.
type latencyState struct {
	mu       sync.Mutex
	episodes atomic.Pointer[[]CongestionEpisode] // nil when there are none
}

// InjectCongestion schedules a recurring daily congestion episode on a
// link (traffic exceeding capacity during busy hours, §2).
func (e *Engine) InjectCongestion(ep CongestionEpisode) {
	e.lat.mu.Lock()
	defer e.lat.mu.Unlock()
	var eps []CongestionEpisode
	if cur := e.lat.episodes.Load(); cur != nil {
		eps = append(eps, *cur...)
	}
	eps = append(eps, ep)
	e.lat.episodes.Store(&eps)
}

// linkBase returns the one-way delay of crossing link l before queueing.
// Annotated links (topo.Annotation, filled by Build) carry their latency
// directly — for generated worlds the annotation reproduces the
// geographic formula byte-for-byte, so annotating changed no RTT — and
// per-interface AttachDelay adds the long-haul circuit of remote-peering
// IXP members on top of the shared fabric's local latency. Unannotated
// links (hand-built test networks that never ran Build) keep the
// geographic formula.
func (e *Engine) linkBase(l *topo.Link, out, in *topo.Iface) time.Duration {
	var d time.Duration
	if l != nil && l.Annot.Latency > 0 && out != nil && in != nil && out.Link == l && in.Link == l {
		d = l.Annot.Latency
	} else {
		d = 500 * time.Microsecond // serialization / local hop cost
		if out != nil && in != nil {
			a := e.Net.Router(out.Router)
			b := e.Net.Router(in.Router)
			if a != nil && b != nil {
				diff := a.Longitude - b.Longitude
				if diff < 0 {
					diff = -diff
				}
				// ~0.35ms per degree of longitude: SF–NYC ≈ 17ms one way.
				d += time.Duration(diff * 0.35 * float64(time.Millisecond))
			}
		}
	}
	if out != nil {
		d += out.AttachDelay
	}
	if in != nil {
		d += in.AttachDelay
	}
	return d
}

// queueDelay returns the congestion-induced queueing delay on l at time
// now (zero when uncongested).
func (e *Engine) queueDelay(l *topo.Link, now time.Duration) time.Duration {
	eps := e.lat.episodes.Load()
	if eps == nil {
		return 0
	}
	tod := now % (24 * time.Hour)
	var q time.Duration
	for _, ep := range *eps {
		if ep.Link != l {
			continue
		}
		if tod >= ep.Start && tod < ep.End {
			q += ep.Queue
		}
	}
	return q
}

// responderCost is what the answering router spends turning a probe
// around.
const responderCost = 200 * time.Microsecond

// hopLink returns the link a probe crosses from steps[i] to steps[i+1] and
// the interfaces it leaves and enters by, decoding only those two.
func (e *Engine) hopLink(steps []step, i int) (l *topo.Link, out, in *topo.Iface) {
	from, to := steps[i], steps[i+1]
	out = ifaceAt(e.Net.Routers[from.router], from.out)
	in = ifaceAt(e.Net.Routers[to.router], to.in)
	if out != nil {
		l = out.Link
	} else if in != nil {
		l = in.Link
	}
	return l, out, in
}

// hopDelay returns the one-way delay from steps[i] to steps[i+1] at
// simulated time now.
func (e *Engine) hopDelay(steps []step, i int, now time.Duration) time.Duration {
	l, out, in := e.hopLink(steps, i)
	return e.linkBase(l, out, in) + e.queueDelay(l, now)
}

// baseDelay sums the link crossings of the given path before queueing: a
// direct probe's target stores it, so each packet adds only the queueing.
func (e *Engine) baseDelay(steps []step) time.Duration {
	var d time.Duration
	for i := 0; i+1 < len(steps); i++ {
		d += e.linkBase(e.hopLink(steps, i))
	}
	return d
}

// queueDelays sums the queueing delay of the given path's link crossings at
// time now. With no episode injected it is zero and walks nothing.
func (e *Engine) queueDelays(steps []step, now time.Duration) time.Duration {
	if e.lat.episodes.Load() == nil {
		return 0
	}
	var q time.Duration
	for i := 0; i+1 < len(steps); i++ {
		l, _, _ := e.hopLink(steps, i)
		q += e.queueDelay(l, now)
	}
	return q
}
