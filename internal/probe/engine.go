// Package probe simulates the network's response to active measurement:
// Paris-style traceroute, ping, and the UDP/TCP/ICMP/TTL-limited probes
// alias resolution relies on. It is the stand-in for the live Internet that
// scamper probes in the paper, and it reproduces — organically, from
// routing and per-router behaviour flags — every traceroute idiosyncrasy
// §4 of the paper catalogues: responses from provider-assigned
// interconnection addresses, third-party source addresses chosen via the
// route back to the prober, firewalled enterprise edges, silent routers,
// virtual-router response addresses, IXP LAN addresses, and rate limiting.
//
// Measurement results deliberately expose only what a real prober sees:
// response source addresses, IP-ID values, and reply types. Ground truth
// stays inside the topology package.
package probe

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"bdrmap/internal/bgp"
	"bdrmap/internal/faults"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// Engine simulates probe forwarding and responses over one network. It
// holds no timeline: every measurement runs on a Lane its caller opens with
// NewLane, so probing takes no engine lock, and lanes on one engine may
// probe from as many goroutines as there are lanes.
//
// An Engine is bound to one built Net and its Tab. What forwarding derives
// from them lives in a plane that every engine forked from this one shares
// (see plane and Fork). Congestion episodes, the fault schedule and the
// registry its traffic counters go to are the engine's own; clock, IP-IDs
// and rate-limit windows are a lane's. Mutate the world, build a new plane
// with New.
type Engine struct {
	Net *topo.Network
	Tab *bgp.Table

	// fwd is the forwarding plane compiled from Net and Tab (see plane),
	// shared with every fork.
	fwd *plane

	// lat holds the latency/congestion model (latency.go).
	lat latencyState

	// eobs holds pre-resolved observability counters (nil-safe when no
	// registry was attached; see SetObs).
	eobs engineObs

	// flt, when set, drops a deterministic schedule of probe responses
	// before the prober sees them — simulated packet loss on the probed
	// path, as opposed to control-channel faults (see internal/faults).
	flt *faults.Injector
}

// engineObs pre-resolves the engine's hot-path counters so each probe
// packet costs one atomic add, not a registry lookup. All fields are
// nil-safe Counters/Histograms: the zero value is a no-op.
type engineObs struct {
	traceroutes *obs.Counter
	probes      *obs.Counter
	packets     *obs.Counter
	responses   *obs.Counter

	respTimeExceeded *obs.Counter
	respEchoReply    *obs.Counter
	respUnreachable  *obs.Counter
	respTimeout      *obs.Counter
	rateLimitDrops   *obs.Counter
	faultDrops       *obs.Counter

	traceHops *obs.Histogram
}

// SetObs attaches a metrics registry to the engine. Call before probing
// starts; a nil registry (the default) keeps the engine metric-free.
func (e *Engine) SetObs(r *obs.Registry) {
	if r == nil {
		e.eobs = engineObs{}
		return
	}
	e.eobs = engineObs{
		traceroutes:      r.Counter("probe.traceroutes"),
		probes:           r.Counter("probe.probes"),
		packets:          r.Counter("probe.packets_sent"),
		responses:        r.Counter("probe.responses"),
		respTimeExceeded: r.Counter("probe.resp.time_exceeded"),
		respEchoReply:    r.Counter("probe.resp.echo_reply"),
		respUnreachable:  r.Counter("probe.resp.unreachable"),
		respTimeout:      r.Counter("probe.resp.timeout"),
		rateLimitDrops:   r.Counter("probe.ratelimit.drops"),
		faultDrops:       r.Counter("probe.faults.dropped"),
		traceHops:        r.Histogram("probe.trace_hops", []int64{2, 4, 8, 16, 32, 64}),
	}
}

// SetFaults attaches a fault injector whose probe-response schedule the
// engine consults: each would-be response may be silently dropped,
// simulating path packet loss (§4: unresponsive routers, rate limiting).
// The schedule is deterministic for a fixed seed as long as probing is
// sequential (one worker, or a single remote agent).
func (e *Engine) SetFaults(inj *faults.Injector) { e.flt = inj }

// dropInjected draws the next probe-response fate from the attached
// injector. Responses that never existed must not draw.
func (e *Engine) dropInjected() bool {
	return e.flt != nil && e.flt.DropProbeResponse()
}

// New creates an engine over a built network and its routing table, with
// an empty forwarding plane of its own.
func New(net *topo.Network, tab *bgp.Table) *Engine {
	return &Engine{Net: net, Tab: tab, fwd: new(plane)}
}

// Fork returns an engine over the same world that shares e's forwarding
// plane and nothing else: it has no congestion, fault or metrics state,
// exactly as if New had built it. What it measures is therefore what a
// fresh engine would measure; it just does not derive the routing again.
func (e *Engine) Fork() *Engine {
	return &Engine{Net: e.Net, Tab: e.Tab, fwd: e.fwd}
}

// ---------------------------------------------------------------------------
// Forwarding

// step is one router a walk visits, stored without a pointer: the router,
// and the ordinals in its Ifaces of the interface the probe arrived on (noIface
// at the VP router) and of the one it leaves by toward the next step (noIface
// at the last).
type step struct {
	router  topo.RouterID
	in, out uint16
}

// noIface is the ordinal of a step's missing interface.
const noIface = math.MaxUint16

// walk is the router-level path a probe would take, read where the plane
// stores it: steps is shared and must not be modified.
type walk struct {
	steps   []step
	reached bool // the probe can be delivered to its destination
	// anchorReplies: the destination prefix's anchor answers echo requests
	// on behalf of covered addresses.
	anchorReplies bool
	// exact is non-nil when the destination address is a real router
	// interface (the responder for direct probes).
	exact *topo.Iface
}

// at decodes s: its router and the interfaces the probe enters and leaves
// it by, nil where there is none.
func (e *Engine) at(s step) (r *topo.Router, in, out *topo.Iface) {
	r = e.Net.Routers[s.router]
	return r, ifaceAt(r, s.in), ifaceAt(r, s.out)
}

func ifaceAt(r *topo.Router, ord uint16) *topo.Iface {
	if ord == noIface {
		return nil
	}
	return r.Ifaces[ord]
}

// ordinal is ifc's index in r.Ifaces; ifc is one of them.
func ordinal(r *topo.Router, ifc *topo.Iface) uint16 {
	i := slices.Index(r.Ifaces, ifc)
	if i < 0 || i >= noIface {
		panic(fmt.Sprintf("probe: interface %v is not one of router %d's first %d", ifc.Addr, r.ID, noIface))
	}
	return uint16(i)
}

const (
	maxRouterHops = 128
	maxASHops     = 32
)

// plane memoises what forwarding derives from one (Net, Tab), which are
// frozen for the plane's lifetime (a mutated world gets a new plane): a
// probe is charged packets, IP-IDs, rate-limit budget and fault draws,
// never a re-derivation of routing. Every engine forked from the one New
// built reads the same plane, so a scenario derives each BFS tree, egress
// set and walk once, whichever vantage point asked first — egress choice
// is a function of routing state, not of who is asking. Everything in it
// is immutable once stored; a hit takes no lock and writes nothing (see
// table). The tables hold nothing until their first miss — an incremental
// round's plane lives for ≈2 100 packets — and the router index is built on
// the first walk, not when the plane is made.
//
// A walk holds no pointer: its record is a table value and its steps one
// run of the plane's step chunks, which only store writes, under stepsMu.
type plane struct {
	walks   table[pathKey, walkRec]
	egress  table[egressKey, []topo.Attachment] // usable attachments, list order
	bfs     table[routerKey, bfsTree]
	orgAtts table[asKey, []topo.Attachment]

	stepsMu sync.Mutex
	steps   chunks[step]

	ixOnce sync.Once
	ix     routerIndex
}

// walkRec is a stored walk: the ref of its first step, how many steps
// there are, and the flags a walk carries.
type walkRec struct {
	steps                  uint32
	n                      uint8
	reached, anchorReplies bool
}

// maxStepChunk is the longest chunk of steps a plane grows (64 KB): its
// first chunk, 256 steps, fits an incremental round's plane and a walk of
// maxRouterHops+1 steps.
const maxStepChunk = 8192

// store keeps res under k unless a walk is stored there already, and
// returns the stored one. Only the walk that is stored writes steps.
func (p *plane) store(k pathKey, res *walk) *walkRec {
	p.stepsMu.Lock()
	defer p.stepsMu.Unlock()
	if w := p.walks.get(k); w != nil {
		return w
	}
	ref, steps := p.steps.reserve(len(res.steps), maxStepChunk)
	copy(steps, res.steps)
	return p.walks.put(k, walkRec{steps: ref, n: uint8(len(res.steps)), reached: res.reached, anchorReplies: res.anchorReplies})
}

// walk reads rec where it lies; exact is the interface its key names.
func (p *plane) walk(rec *walkRec, exact *topo.Iface) walk {
	return walk{
		steps:         p.steps.run(rec.steps, int(rec.n)),
		reached:       rec.reached,
		anchorReplies: rec.anchorReplies,
		exact:         exact,
	}
}

// routerIndex numbers what a walk asks about routers densely, so that
// "same organisation?" is one int compare and a BFS tree is a slice.
type routerIndex struct {
	rtr  []routerSlot // by RouterID
	size []int32      // IGP component -> routers in it
}

type routerSlot struct {
	org  topo.ASN // equal for two routers exactly when their owners are one organisation
	comp int32    // IGP component: the routers internal links join
	pos  int32    // position within the component, indexing its BFS trees
}

// index returns the plane's router index, building it on first use.
func (p *plane) index(net *topo.Network) *routerIndex {
	p.ixOnce.Do(func() { p.ix.build(net) })
	return &p.ix
}

// build names net's organisations and numbers its IGP components. An
// organisation is named by the owner's topo.Network.OrgOf, its least ASN,
// so no map is keyed by string. Components are found with one
// breadth-first pass over every router.
func (ix *routerIndex) build(net *topo.Network) {
	ix.rtr = make([]routerSlot, len(net.Routers))
	for id, r := range net.Routers {
		ix.rtr[id] = routerSlot{org: net.OrgOf(r.Owner), comp: -1}
	}

	// queue holds every router once, component after component, in the
	// order the breadth-first pass reaches them.
	queue := make([]topo.RouterID, 0, len(net.Routers))
	for root := range net.Routers {
		if ix.rtr[root].comp >= 0 {
			continue
		}
		comp, start := int32(len(ix.size)), len(queue)
		ix.rtr[root].comp = comp
		queue = append(queue, topo.RouterID(root))
		for i := start; i < len(queue); i++ {
			cur := queue[i]
			ix.rtr[cur].pos = int32(i - start)
			for _, adj := range net.InternalNeighbors(cur) {
				if nb := adj.Peer.Router; ix.rtr[nb].comp < 0 {
					ix.rtr[nb].comp = comp
					queue = append(queue, nb)
				}
			}
		}
		ix.size = append(ix.size, int32(len(queue)-start))
	}
}

// sameOrg reports whether routers a and b belong to one organisation.
func (ix *routerIndex) sameOrg(a, b topo.RouterID) bool {
	return ix.rtr[a].org == ix.rtr[b].org
}

// pathKey names a walk by what walkPath reads of its destination: the
// interface the address belongs to, or — when no interface holds it — only
// the routed prefix covering it. Every address of a target block therefore
// shares one walk, and so do the §5.3 retry rule's second to fifth.
type pathKey struct {
	start topo.RouterID
	to    netx.Addr // the interface address when exact, else the prefix's base
	len   uint8     // 32 when exact, else the prefix's length
	exact bool
}

func (k pathKey) hash() uint64 {
	h := uint64(uint32(k.start))<<32 | uint64(k.to)
	return netx.Mix64(h ^ uint64(k.len)<<56)
}

// routerKey and asKey key the plane's per-router and per-AS tables.
type (
	routerKey topo.RouterID
	asKey     topo.ASN
)

func (k routerKey) hash() uint64 { return netx.Mix64(uint64(uint32(k))) }
func (k asKey) hash() uint64     { return netx.Mix64(uint64(k)) }

// egressKey names an egress set by announcement atom, not prefix: the set
// is read off the atom's RIB, origins and pinned links, which is all an
// atom's prefixes have in common and all egressSet looks at.
type egressKey struct {
	owner topo.ASN
	atom  int32
}

func (k egressKey) hash() uint64 { return netx.Mix64(uint64(k.owner)<<32 | uint64(uint32(k.atom))) }

// computePath returns the router-level forwarding path from startRouter
// toward dst: the walk toward an address nothing routes and no interface
// holds is empty. Its steps are shared and must not be modified.
func (e *Engine) computePath(startRouter topo.RouterID, dst netx.Addr) walk {
	target := e.Net.IfaceByAddr(dst)
	key := pathKey{start: startRouter, to: dst, len: 32, exact: true}
	var prefix netx.Prefix
	routed := false
	if target == nil {
		if prefix, routed = e.Tab.Lookup(dst); !routed {
			return walk{}
		}
		key = pathKey{start: startRouter, to: prefix.Base, len: uint8(prefix.Len)}
	}
	if w := e.fwd.walks.get(key); w != nil {
		return e.fwd.walk(w, target)
	}
	if target != nil {
		prefix, routed = e.Tab.Lookup(dst)
	}
	var res walk
	var buf [maxRouterHops + 1]step // a walk takes at most one step per hop past the first
	res.steps = e.walkPath(&res, startRouter, target, prefix, routed, buf[:0])
	return e.fwd.walk(e.fwd.store(key, &res), target)
}

// walkPath walks the forwarding path from startRouter toward target, the
// interface dst names, or — when target is nil — toward dst's routed prefix.
// It returns the steps, appended to steps, and fills res's other fields.
// Firewalled edges truncate the path (§4 challenge 3).
func (e *Engine) walkPath(res *walk, startRouter topo.RouterID, target *topo.Iface, prefix netx.Prefix, routed bool, steps []step) []step {
	res.exact = target
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
	steps = append(steps, step{router: cur.ID, in: noIface, out: noIface})
	visitedAS := 0
	// cross leaves r by out and arrives at next by in.
	cross := func(r *topo.Router, out *topo.Iface, next *topo.Router, in *topo.Iface) {
		steps[len(steps)-1].out = ordinal(r, out)
		steps = append(steps, step{router: next.ID, in: ordinal(next, in), out: noIface})
	}

	for hops := 0; hops < maxRouterHops; hops++ {
		r := e.Net.Routers[steps[len(steps)-1].router]

		// Firewalled edge: a probe that would continue past this router
		// deeper into its network is discarded. Delivery TO the router
		// itself is allowed.
		if r.Behavior.FirewallEdge && len(steps) > 1 {
			prev := e.Net.Routers[steps[len(steps)-2].router]
			enteredFromOutside := prev.Owner != r.Owner
			if enteredFromOutside && !(target != nil && target.Router == r.ID) {
				return steps // truncated
			}
		}

		// Delivered?
		if target != nil && target.Router == r.ID {
			res.reached = true
			return steps
		}
		if target == nil && routed && anchorOK && anchor.Router == r.ID {
			res.reached = true
			return steps
		}

		// Destination interface directly across one of this router's
		// links (e.g. probing the far side of an interdomain link)?
		if target != nil {
			if out, far := e.linkHopTo(r, target); out != nil {
				cross(r, out, far, target)
				continue
			}
		}

		// Next waypoint within the current organization: the target router
		// itself, the near side of the target's link (delivery to the far
		// side of an interconnection subnet goes via the directly attached
		// router), or the prefix anchor.
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
			// At the anchor: delivered only when the probe was headed to
			// the anchored prefix itself rather than an interface the
			// routing could not locate from here.
			res.reached = anchorWaypoint && target == nil
			return steps
		}

		if waypoint < 0 {
			// Interdomain hop.
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
				// Cross the interdomain link or IXP LAN.
				out := att.Link.IfaceOn(r.ID)
				in := att.Link.IfaceOn(att.RemoteRtr)
				if out == nil || in == nil {
					return steps
				}
				cross(r, out, e.Net.Router(att.RemoteRtr), in)
				continue
			}
			waypoint = att.LocalRtr // head for the chosen border first
		}
		out, next, in, ok := e.stepToward(r, waypoint, prefix)
		if !ok {
			return steps
		}
		cross(r, out, next, in)
	}
	return steps
}

// originatesHere reports whether owner's organization announces prefix, so
// the anchor in this org terminates the path.
func (e *Engine) originatesHere(owner topo.ASN, prefix netx.Prefix) bool {
	for _, j := range e.Tab.OriginIndexes(prefix) {
		if e.Net.SameOrg(e.Tab.ASOf(j), owner) {
			return true
		}
	}
	return false
}

// linkHopTo returns the far-side router when the destination interface sits
// on a link directly attached to r, with r's interface on that link.
func (e *Engine) linkHopTo(r *topo.Router, target *topo.Iface) (out *topo.Iface, far *topo.Router) {
	if target.Link == nil || target.Router == r.ID {
		return nil, nil
	}
	if out = target.Link.IfaceOn(r.ID); out == nil {
		return nil, nil
	}
	return out, e.Net.Router(target.Router)
}

// stepToward takes one internal hop from r toward waypoint: r's outgoing
// interface, the router it leads to and that router's incoming interface.
// ok is false when no internal path exists.
func (e *Engine) stepToward(r *topo.Router, waypoint topo.RouterID, prefix netx.Prefix) (out *topo.Iface, next *topo.Router, in *topo.Iface, ok bool) {
	nh, ok := e.bfsFrom(waypoint).nextHopFrom(r.ID)
	if !ok {
		return nil, nil, nil, false
	}
	// Pick the connecting link; parallel links are spread per-prefix so
	// equal-cost paths expose different ingress interfaces (fig. 13 and
	// the analytical alias scenario of §5.4.7).
	l := e.parallelLink(r.ID, nh, prefixHash(prefix))
	if l == nil {
		return nil, nil, nil, false
	}
	return l.IfaceOn(r.ID), e.Net.Router(nh), l.IfaceOn(nh), true
}

// prefixHash spreads destination prefixes across equal-cost choices.
// Prefix bases are power-of-two aligned, so a plain modulus would collapse
// onto one choice; a multiplicative mix avoids that.
func prefixHash(p netx.Prefix) int {
	h := uint32(p.Base) * 2654435761
	h ^= h >> 13
	return int(h>>16) & 0x7fffffff
}

// parallelLink returns the (h mod n)-th of the n internal links directly
// joining a and b, in adjacency order; nil when there is none.
func (e *Engine) parallelLink(a, b topo.RouterID, h int) *topo.Link {
	adjs := e.Net.InternalNeighbors(a)
	n := 0
	for i := range adjs {
		if adjs[i].Peer.Router == b {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	k := h % n
	for i := range adjs {
		if adjs[i].Peer.Router == b {
			if k == 0 {
				return adjs[i].Link
			}
			k--
		}
	}
	return nil // unreachable
}

// chooseEgress applies hot-potato routing: among the attachments of r's AS
// leading to an equal-best next-hop AS (and over which the destination
// prefix is actually announced), pick the border closest to r by IGP
// distance, spreading ties per prefix. The pick is made by counting over
// the short per-(owner, atom) egress set, so it allocates nothing.
func (e *Engine) chooseEgress(r *topo.Router, prefix netx.Prefix, rib *bgp.PrefixRIB) (topo.Attachment, bool) {
	set := e.egressSet(r.Owner, prefix, rib)
	// Pass 1: the best IGP distance and how many attachments tie for it.
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
	// Pass 2: pick the k-th tying attachment in list order — the same
	// element the collect-then-index implementation chose.
	k := prefixHash(prefix) % ties
	for i := range set {
		if d, ok := e.igpDist(r.ID, set[i].LocalRtr); ok && d == bestDist {
			if k == 0 {
				return set[i], true
			}
			k--
		}
	}
	return topo.Attachment{}, false // unreachable
}

// egressSet is the router-independent half of chooseEgress: the attachments
// of owner's organization, in list order, that lead to a candidate next-hop
// AS and carry the prefix's announcement. The slice is shared: callers must
// not mutate it.
func (e *Engine) egressSet(owner topo.ASN, prefix netx.Prefix, rib *bgp.PrefixRIB) []topo.Attachment {
	key := egressKey{owner, rib.Atom}
	if set := e.fwd.egress.get(key); set != nil {
		return *set
	}
	return *e.fwd.egress.put(key, e.buildEgressSet(owner, prefix, rib))
}

func (e *Engine) buildEgressSet(owner topo.ASN, prefix netx.Prefix, rib *bgp.PrefixRIB) []topo.Attachment {
	single, multi := e.candidateNextHops(owner, rib)
	if single == 0 && len(multi) == 0 {
		return nil
	}
	if multi == nil {
		multi = []topo.ASN{single}
	}
	var buf [8]topo.Attachment
	set := buf[:0]
	// Siblings share an IGP: egress over any org member's attachments.
	for _, att := range e.orgAttachments(owner) {
		if !slices.Contains(multi, att.Remote) {
			continue
		}
		// Selective announcement: the origin announces a pinned prefix
		// only over the designated links (§6).
		if e.Tab.IsOrigin(prefix, att.Remote) && !e.Net.AnnouncedOnLink(prefix, att.Link) {
			continue
		}
		set = append(set, att)
	}
	return append([]topo.Attachment(nil), set...)
}

// orgAttachments returns the concatenated interdomain attachments of every
// member of owner's organization, cached per owner. The slice is shared:
// callers must not mutate it.
func (e *Engine) orgAttachments(owner topo.ASN) []topo.Attachment {
	if atts := e.fwd.orgAtts.get(asKey(owner)); atts != nil {
		return *atts
	}
	var atts []topo.Attachment
	for _, member := range e.Net.Siblings(owner) {
		atts = append(atts, e.Net.Attachments(member)...)
	}
	return *e.fwd.orgAtts.put(asKey(owner), atts)
}

// candidateNextHops returns the equal-best next-hop set for the host
// network (multi-exit fidelity) and the canonical next hop elsewhere.
// Sibling chains are followed: a route whose next hop is a sibling
// resolves to the sibling's own next hop (one IGP, one policy).
// Exactly one of the returns is meaningful: multi is non-nil for the host
// org's candidate set (shared slice, do not mutate); otherwise single is
// the canonical next hop, 0 when the prefix is unreachable from owner.
func (e *Engine) candidateNextHops(owner topo.ASN, rib *bgp.PrefixRIB) (single topo.ASN, multi []topo.ASN) {
	if e.Net.SameOrg(owner, e.Net.HostASN) {
		return 0, rib.HostCandidates
	}
	cur := owner
	for hops := 0; hops < 8; hops++ {
		i := e.Tab.IndexOf(cur)
		if i < 0 {
			return 0, nil
		}
		c, _, nh := rib.At(i)
		if c == bgp.ClassNone || c == bgp.ClassOrigin || nh < 0 {
			return 0, nil
		}
		next := e.Tab.ASOf(nh)
		if !e.Net.SameOrg(next, owner) {
			return next, nil
		}
		cur = next
	}
	return 0, nil
}

// ---------------------------------------------------------------------------
// Intra-AS shortest paths

// bfsTree holds BFS parents toward one root over the internal-link graph,
// one entry per router of the root's IGP component, indexed by the
// router's position in it: no other router can reach the root.
type bfsTree struct {
	ix   *routerIndex
	comp int32
	hops []bfsHop
}

type bfsHop struct {
	next topo.RouterID // the neighbor one hop closer to the root; -1 at the root
	dist int32         // hops to the root
}

// at returns r's entry; false when r is outside the root's component.
func (t *bfsTree) at(r topo.RouterID) (bfsHop, bool) {
	s := t.ix.rtr[r]
	if s.comp != t.comp {
		return bfsHop{}, false
	}
	return t.hops[s.pos], true
}

func (t *bfsTree) nextHopFrom(r topo.RouterID) (topo.RouterID, bool) {
	h, ok := t.at(r)
	return h.next, ok && h.next >= 0
}

// bfsFrom returns (cached) the BFS tree rooted at root over internal links.
func (e *Engine) bfsFrom(root topo.RouterID) *bfsTree {
	if t := e.fwd.bfs.get(routerKey(root)); t != nil {
		return t
	}
	ix := e.fwd.index(e.Net)
	rs := ix.rtr[root]
	t := bfsTree{ix: ix, comp: rs.comp, hops: make([]bfsHop, ix.size[rs.comp])}
	for i := range t.hops {
		t.hops[i].dist = -1
	}
	t.hops[rs.pos] = bfsHop{next: -1}
	var buf [64]topo.RouterID
	queue := append(buf[:0], root)
	for i := 0; i < len(queue); i++ {
		cur := queue[i]
		d := t.hops[ix.rtr[cur].pos].dist + 1
		for _, adj := range e.Net.InternalNeighbors(cur) {
			nb := adj.Peer.Router
			if hop := &t.hops[ix.rtr[nb].pos]; hop.dist < 0 {
				*hop = bfsHop{next: cur, dist: d}
				queue = append(queue, nb)
			}
		}
	}
	return e.fwd.bfs.put(routerKey(root), t)
}

// igpDist returns the internal hop distance between two routers.
func (e *Engine) igpDist(from, to topo.RouterID) (int, bool) {
	if from == to {
		return 0, true
	}
	h, ok := e.bfsFrom(to).at(from)
	return int(h.dist), ok
}
