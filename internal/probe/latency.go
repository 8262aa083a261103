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

// linkDelay returns the one-way delay of crossing link l at simulated
// time now. Annotated links (topo.Annotation, filled by Build) carry their
// latency directly — for generated worlds the annotation reproduces the
// geographic formula byte-for-byte, so annotating changed no RTT — and
// per-interface AttachDelay adds the long-haul circuit of remote-peering
// IXP members on top of the shared fabric's local latency. Unannotated
// links (hand-built test networks that never ran Build) keep the
// geographic formula.
func (e *Engine) linkDelay(l *topo.Link, out, in *topo.Iface, now time.Duration) time.Duration {
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
	d += e.queueDelay(l, now)
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

// hopDelay returns the one-way delay from steps[i] to steps[i+1] at
// simulated time now.
func (e *Engine) hopDelay(steps []pathStep, i int, now time.Duration) time.Duration {
	out := steps[i].out
	in := steps[i+1].in
	var l *topo.Link
	if out != nil {
		l = out.Link
	} else if in != nil {
		l = in.Link
	}
	return e.linkDelay(l, out, in, now)
}

// oneWayDelay sums the link crossings of the given path at time now.
func (e *Engine) oneWayDelay(steps []pathStep, now time.Duration) time.Duration {
	var oneWay time.Duration
	for i := 0; i+1 < len(steps); i++ {
		oneWay += e.hopDelay(steps, i, now)
	}
	return oneWay
}

// pathRTT computes the round-trip time of a probe that traverses the
// given path and returns: twice the one-way sum (the reverse path is
// assumed symmetric, as TSLP assumes for the near/far comparison).
func (e *Engine) pathRTT(steps []pathStep, now time.Duration) time.Duration {
	return 2 * (e.oneWayDelay(steps, now) + responderCost)
}
