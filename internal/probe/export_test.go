package probe

import (
	"fmt"
	"slices"
	"time"

	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// Ledger is the traffic an engine has charged to its registry: the four
// counters every traceroute and probe adds to.
type Ledger struct {
	Traceroutes  int64
	Probes       int64
	PacketsSent  int64 // individual probe packets (one per traceroute hop)
	ResponsesRcv int64
}

// ReadLedger reads the engine traffic counters from reg.
func ReadLedger(reg *obs.Registry) Ledger {
	s := reg.Snapshot()
	return Ledger{
		Traceroutes:  s.Counter("probe.traceroutes"),
		Probes:       s.Counter("probe.probes"),
		PacketsSent:  s.Counter("probe.packets_sent"),
		ResponsesRcv: s.Counter("probe.responses"),
	}
}

// chooseEgressOracle is chooseEgress as it was before the egress set
// existed, kept as the differential reference: two passes over every
// attachment of r's organisation, filtering and ranking each one in place.
func (e *Engine) chooseEgressOracle(r *topo.Router, prefix netx.Prefix, rib *bgp.PrefixRIB) (topo.Attachment, bool) {
	single, multi := e.candidateNextHops(r.Owner, rib)
	if single == 0 && len(multi) == 0 {
		return topo.Attachment{}, false
	}
	atts := e.orgAttachments(r.Owner)
	usable := func(att topo.Attachment) (int, bool) {
		if multi == nil && att.Remote != single || multi != nil && !slices.Contains(multi, att.Remote) {
			return 0, false
		}
		if e.Tab.IsOrigin(prefix, att.Remote) && !e.Net.AnnouncedOnLink(prefix, att.Link) {
			return 0, false
		}
		return e.igpDist(r.ID, att.LocalRtr)
	}
	bestDist, ties := -1, 0
	for _, att := range atts {
		d, ok := usable(att)
		if !ok {
			continue
		}
		switch {
		case bestDist < 0 || d < bestDist:
			bestDist, ties = d, 1
		case d == bestDist:
			ties++
		}
	}
	if ties == 0 {
		return topo.Attachment{}, false
	}
	k := prefixHash(prefix) % ties
	for _, att := range atts {
		if d, ok := usable(att); ok && d == bestDist {
			if k == 0 {
				return att, true
			}
			k--
		}
	}
	return topo.Attachment{}, false
}

// len returns the number of entries stored.
func (t *table[K, V]) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// keys returns every key stored, in slot order.
func (t *table[K, V]) keys() []K {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []K
	if sp := t.slots.Load(); sp != nil {
		for i := range *sp {
			if ref := (*sp)[i].Load(); ref != 0 {
				out = append(out, t.ents.at(ref-1).key)
			}
		}
	}
	return out
}

// bfsFromOracle is the BFS tree as it was built before trees became
// slices, kept as the differential reference: two maps from router to its
// next hop toward root and to its distance, over every router internal
// links reach, unmemoised.
func (e *Engine) bfsFromOracle(root topo.RouterID) (next map[topo.RouterID]topo.RouterID, dist map[topo.RouterID]int) {
	next = make(map[topo.RouterID]topo.RouterID)
	dist = map[topo.RouterID]int{root: 0}
	queue := []topo.RouterID{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, adj := range e.Net.InternalNeighbors(cur) {
			nb := adj.Peer.Router
			if _, seen := dist[nb]; seen {
				continue
			}
			dist[nb] = dist[cur] + 1
			next[nb] = cur
			queue = append(queue, nb)
		}
	}
	return next, dist
}

// CheckOrgIndex holds the router index's organisation numbers to
// topo.Network.SameOrg on the owners: every router against one router of each owner.
func (e *Engine) CheckOrgIndex() error {
	ix := e.fwd.index(e.Net)
	reps := make(map[topo.ASN]topo.RouterID)
	for _, r := range e.Net.Routers {
		if _, ok := reps[r.Owner]; !ok {
			reps[r.Owner] = r.ID
		}
	}
	for _, a := range e.Net.Routers {
		for owner, b := range reps {
			if got, want := ix.sameOrg(a.ID, b), e.Net.SameOrg(a.Owner, owner); got != want {
				return fmt.Errorf("routers %d (AS%d) and %d (AS%d): same organisation by index %t, by SameOrg %t", a.ID, a.Owner, b, owner, got, want)
			}
		}
	}
	return nil
}

// CheckBFS holds every BFS tree the plane holds to the map-based oracle:
// for every router of the network, igpDist toward the tree's root and the
// tree's next hop must be the oracle's. It returns how many trees it
// checked.
func (e *Engine) CheckBFS() (int, error) {
	roots := e.fwd.bfs.keys()
	for _, key := range roots {
		root := topo.RouterID(key)
		next, dist := e.bfsFromOracle(root)
		t := e.bfsFrom(root)
		for _, r := range e.Net.Routers {
			nh, ok := t.nextHopFrom(r.ID)
			wantNH, wantOK := next[r.ID]
			if ok != wantOK || ok && nh != wantNH {
				return 0, fmt.Errorf("tree of router %d: next hop from %d is %d, %t; the oracle's is %d, %t", root, r.ID, nh, ok, wantNH, wantOK)
			}
			d, ok := e.igpDist(r.ID, root)
			wantD, wantOK := dist[r.ID]
			if ok != wantOK || ok && d != wantD {
				return 0, fmt.Errorf("igpDist(%d, %d) = %d, %t; the oracle's is %d, %t", r.ID, root, d, ok, wantD, wantOK)
			}
		}
	}
	return len(roots), nil
}

// pathStep and pathResult are a walk as the plane stored it before its
// steps lost their pointers: the oracle walk's output, and how tests read
// a stored walk's routers and interfaces.
type pathStep struct {
	router *topo.Router
	in     *topo.Iface // interface the probe arrived on (nil at the VP router)
	out    *topo.Iface // interface toward the next step (nil at the last)
}

type pathResult struct {
	steps         []pathStep
	reached       bool
	anchorReplies bool
	exactIface    *topo.Iface
}

// decode expands a stored walk into pointer steps.
func (e *Engine) decode(p walk) pathResult {
	res := pathResult{reached: p.reached, anchorReplies: p.anchorReplies, exactIface: p.exact}
	for _, s := range p.steps {
		r, in, out := e.at(s)
		res.steps = append(res.steps, pathStep{router: r, in: in, out: out})
	}
	return res
}

// pathSteps is the stored walk from start toward dst, decoded.
func (e *Engine) pathSteps(start topo.RouterID, dst netx.Addr) []pathStep {
	return e.decode(e.computePath(start, dst)).steps
}

func samePath(a, b *pathResult) bool {
	return slices.Equal(a.steps, b.steps) && a.reached == b.reached &&
		a.anchorReplies == b.anchorReplies && a.exactIface == b.exactIface
}

// walkPathOracle is walkPath as it was before walks were stored without
// pointers, kept as the differential reference: it looks dst up itself and
// builds the walk as pointer steps.
func (e *Engine) walkPathOracle(res *pathResult, startRouter topo.RouterID, dst netx.Addr, steps []pathStep) []pathStep {
	target := e.Net.IfaceByAddr(dst)
	res.exactIface = target

	prefix, routed := e.Tab.Lookup(dst)
	var rib *bgp.PrefixRIB
	var anchor topo.PrefixAnchor
	var anchorOK bool
	if routed {
		rib = e.Tab.Routes(prefix)
		anchor, anchorOK = e.Net.Anchor(prefix)
		res.anchorReplies = anchorOK && anchor.Replies
	}
	if !routed && target == nil {
		return steps // nothing to head toward
	}

	cur := e.Net.Router(startRouter)
	if cur == nil {
		return steps
	}
	ix := e.fwd.index(e.Net)
	steps = append(steps, pathStep{router: cur})
	visitedAS := 0

	for hops := 0; hops < maxRouterHops; hops++ {
		last := &steps[len(steps)-1]
		r := last.router

		if r.Behavior.FirewallEdge && len(steps) > 1 {
			prev := steps[len(steps)-2].router
			enteredFromOutside := prev.Owner != r.Owner
			if enteredFromOutside && !(target != nil && target.Router == r.ID) {
				return steps // truncated
			}
		}

		if target != nil && target.Router == r.ID {
			res.reached = true
			return steps
		}
		if target == nil && routed && anchorOK && anchor.Router == r.ID {
			res.reached = true
			return steps
		}

		if target != nil {
			if out, far := e.linkHopTo(r, target); out != nil {
				last.out = out
				steps = append(steps, pathStep{router: far, in: target})
				continue
			}
		}

		var waypoint topo.RouterID = -1
		anchorWaypoint := false
		if target != nil {
			if ix.sameOrg(target.Router, r.ID) {
				waypoint = target.Router
			} else if target.Link != nil {
				for _, lif := range target.Link.Ifaces {
					if lif != target && ix.sameOrg(lif.Router, r.ID) {
						waypoint = lif.Router
						break
					}
				}
			}
		}
		if waypoint < 0 && routed && anchorOK &&
			ix.sameOrg(anchor.Router, r.ID) &&
			e.originatesHere(r.Owner, prefix) {
			waypoint = anchor.Router
			anchorWaypoint = true
		}

		if waypoint == r.ID {
			res.reached = anchorWaypoint && target == nil
			return steps
		}

		if waypoint < 0 {
			if !routed || rib == nil {
				return steps
			}
			if visitedAS++; visitedAS > maxASHops {
				return steps
			}
			att, ok := e.chooseEgress(r, prefix, rib)
			if !ok {
				return steps
			}
			if att.LocalRtr == r.ID {
				out := att.Link.IfaceOn(r.ID)
				in := att.Link.IfaceOn(att.RemoteRtr)
				if out == nil || in == nil {
					return steps
				}
				last.out = out
				steps = append(steps, pathStep{router: e.Net.Router(att.RemoteRtr), in: in})
				continue
			}
			waypoint = att.LocalRtr
		}
		out, next, in, ok := e.stepToward(r, waypoint, prefix)
		if !ok {
			return steps
		}
		last.out = out
		steps = append(steps, pathStep{router: next, in: in})
	}
	return steps
}

// CheckWalk compares the stored walk from start toward dst, decoded on its
// miss and again on its hit, against the oracle's pointer walk — steps,
// reached, anchorReplies and the exact interface — and chooseEgress
// against the two-pass scan at every router the walk visits.
func (e *Engine) CheckWalk(start topo.RouterID, dst netx.Addr) error {
	var want pathResult
	want.steps = e.walkPathOracle(&want, start, dst, nil)
	for _, pass := range []string{"miss", "hit"} {
		if got := e.decode(e.computePath(start, dst)); !samePath(&got, &want) {
			return fmt.Errorf("router %d → %v: stored walk (%s) %+v differs from the pointer walk %+v", start, dst, pass, got, want)
		}
	}
	prefix, routed := e.Tab.Lookup(dst)
	if !routed {
		return nil
	}
	rib := e.Tab.Routes(prefix)
	for _, st := range want.steps {
		got, gotOK := e.chooseEgress(st.router, prefix, rib)
		want, wantOK := e.chooseEgressOracle(st.router, prefix, rib)
		if got != want || gotOK != wantOK {
			return fmt.Errorf("router %d → %v: chooseEgress at router %d = %+v, %t; the two-pass scan gives %+v, %t",
				start, dst, st.router.ID, got, gotOK, want, wantOK)
		}
	}
	return nil
}

// chooseEgressTwoPass is chooseEgress as it was before it read each
// distance once: one pass over the egress set for the best IGP distance
// and its ties, a second that reads every distance again to find the k-th
// tie.
func (e *Engine) chooseEgressTwoPass(r *topo.Router, prefix netx.Prefix, rib *bgp.PrefixRIB) (topo.Attachment, bool) {
	set := e.egressSet(r.Owner, prefix, rib)
	bestDist, ties := -1, 0
	for i := range set {
		d, ok := e.igpDist(r.ID, set[i].LocalRtr)
		switch {
		case !ok:
		case bestDist < 0 || d < bestDist:
			bestDist, ties = d, 1
		case d == bestDist:
			ties++
		}
	}
	if ties == 0 {
		return topo.Attachment{}, false
	}
	k := prefixHash(prefix) % ties
	for i := range set {
		if d, ok := e.igpDist(r.ID, set[i].LocalRtr); ok && d == bestDist {
			if k == 0 {
				return set[i], true
			}
			k--
		}
	}
	return topo.Attachment{}, false
}

// CheckEgressChoices compares chooseEgress with the two-pass scan at every
// router toward every announced prefix, and returns how many of the
// choices found an egress.
func (e *Engine) CheckEgressChoices() (chosen int, err error) {
	for _, p := range e.Tab.Prefixes() {
		rib := e.Tab.Routes(p)
		for _, r := range e.Net.Routers {
			got, gotOK := e.chooseEgress(r, p, rib)
			want, wantOK := e.chooseEgressTwoPass(r, p, rib)
			if got != want || gotOK != wantOK {
				return chosen, fmt.Errorf("router %d → %v: chooseEgress = %+v, %t; the two-pass scan gives %+v, %t", r.ID, p, got, gotOK, want, wantOK)
			}
			if gotOK {
				chosen++
			}
		}
	}
	return chosen, nil
}

// egressSetOracle is the egress set as it was defined per prefix: every
// attachment of owner's organisation filtered against this prefix's own
// origins and pinned links, nothing memoised.
func (e *Engine) egressSetOracle(owner topo.ASN, prefix netx.Prefix, rib *bgp.PrefixRIB) []topo.Attachment {
	single, multi := e.candidateNextHops(owner, rib)
	if single == 0 && len(multi) == 0 {
		return nil
	}
	var set []topo.Attachment
	for _, att := range e.orgAttachments(owner) {
		if multi == nil && att.Remote != single || multi != nil && !slices.Contains(multi, att.Remote) {
			continue
		}
		if e.Tab.IsOrigin(prefix, att.Remote) && !e.Net.AnnouncedOnLink(prefix, att.Link) {
			continue
		}
		set = append(set, att)
	}
	return set
}

// CheckEgressSets compares, for every announced prefix taken in the given
// order, the atom-keyed egress set — built from whichever prefix of the
// atom asked first — against the per-prefix definition. The owners asked
// are the ASes attached to the prefix's origins (the only places a prefix's
// own pinned links can enter the set), the host, and every 16th AS. It
// returns how many sets the engine ended up holding and how many distinct
// (owner, atom) pairs were asked for.
func (e *Engine) CheckEgressSets(prefixes []netx.Prefix) (held, asked int, err error) {
	sample := []topo.ASN{e.Net.HostASN}
	for i, all := 0, e.Net.ASNs(); i < len(all); i += 16 {
		sample = append(sample, all[i])
	}
	pairs := make(map[egressKey]bool)
	for _, p := range prefixes {
		rib := e.Tab.Routes(p)
		owners := slices.Clone(sample)
		for _, o := range e.Tab.Origins(p) {
			for _, att := range e.Net.Attachments(o) {
				owners = append(owners, att.Remote)
			}
		}
		for _, owner := range owners {
			pairs[egressKey{owner, rib.Atom}] = true
			got, want := e.egressSet(owner, p, rib), e.egressSetOracle(owner, p, rib)
			if !slices.Equal(got, want) {
				return 0, 0, fmt.Errorf("AS%d → %v (atom %d): atom-keyed egress set %+v, per-prefix set %+v", owner, p, rib.Atom, got, want)
			}
		}
	}
	return e.fwd.egress.len(), len(pairs), nil
}

// pathRTT is the round-trip time of a probe along the given path at time
// now summed link by link, kept as the reference the running sums are held
// to: twice the one-way sum (the reverse path is assumed symmetric, as TSLP
// assumes for the near/far comparison) plus the responder's turnaround.
func (e *Engine) pathRTT(steps []pathStep, now time.Duration) time.Duration {
	var oneWay time.Duration
	for i := 0; i+1 < len(steps); i++ {
		out, in := steps[i].out, steps[i+1].in
		var l *topo.Link
		if out != nil {
			l = out.Link
		} else if in != nil {
			l = in.Link
		}
		oneWay += e.linkBase(l, out, in) + e.queueDelay(l, now)
	}
	return 2 * (oneWay + responderCost)
}

// probeOracle is probe as it was before a lane resolved its targets, kept
// as the differential reference: the walk looked up again for every packet
// and the RTT summed link by link at the packet's time.
func (e *Engine) probeOracle(vp *topo.VP, target netx.Addr, m Method, lane *Lane) Response {
	e.eobs.probes.Inc()
	e.eobs.packets.Inc()
	path := e.decode(e.computePath(vp.Router, target))
	if !path.reached || path.exactIface == nil {
		return Response{}
	}
	r := e.Net.Router(path.exactIface.Router)
	if r == nil || !lane.allow(r) {
		return Response{}
	}
	b := r.Behavior
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
			from = r.CanonicalAddr()
		}
	case MethodTTLLimited:
		if b.NoTTLExpired {
			return Response{}
		}
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

// mapLane is a lane's response state as it was kept before it was dense,
// kept as the differential reference: one heap record per router in a map,
// seeded from the router's ID when the router first answers, and a rate
// window per limited router in another.
type mapLane struct {
	ipid map[topo.RouterID]*ipidState
	rate map[topo.RouterID]*rateState
}

type ipidState struct {
	base    uint16
	bgRate  float64 // background increments per second
	sent    uint32
	perIfc  map[netx.Addr]uint16
	rndSeed uint32
}

type rateState struct {
	window int64 // second index
	count  int
}

func newMapLane() *mapLane {
	return &mapLane{ipid: make(map[topo.RouterID]*ipidState), rate: make(map[topo.RouterID]*rateState)}
}

func (l *mapLane) nextIPID(r *topo.Router, ifc *topo.Iface, now time.Duration) uint16 {
	st := l.ipid[r.ID]
	if st == nil {
		id := uint32(r.ID)
		st = &ipidState{base: uint16(id*2654435761 + 17), bgRate: 20 + float64(id%180), rndSeed: id*2246822519 + 3}
		l.ipid[r.ID] = st
	}
	switch r.Behavior.IPID {
	case topo.IPIDShared:
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
	default:
		return 0
	}
}

func (l *mapLane) allow(r *topo.Router, now time.Duration) bool {
	if r.Behavior.RateLimitPPS <= 0 {
		return true
	}
	st := l.rate[r.ID]
	if st == nil {
		st = &rateState{}
		l.rate[r.ID] = st
	}
	if sec := int64(now / time.Second); st.window != sec {
		st.window, st.count = sec, 0
	}
	if st.count >= r.Behavior.RateLimitPPS {
		return false
	}
	st.count++
	return true
}

// ClearCongestion removes all injected episodes.
func (e *Engine) ClearCongestion() {
	e.lat.mu.Lock()
	defer e.lat.mu.Unlock()
	e.lat.episodes.Store(nil)
}
