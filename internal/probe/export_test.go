package probe

import (
	"fmt"
	"slices"

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

func samePath(a, b *pathResult) bool {
	return slices.Equal(a.steps, b.steps) && a.reached == b.reached &&
		a.anchorReplies == b.anchorReplies && a.exactIface == b.exactIface
}

// CheckWalk compares the memoised walk from start toward dst, on its miss
// and again on its hit, against a fresh uncached walk, and chooseEgress
// against the oracle at every router the walk visits.
func (e *Engine) CheckWalk(start topo.RouterID, dst netx.Addr) error {
	var fresh pathResult
	fresh.steps = e.walkPath(&fresh, start, dst, nil)
	for _, pass := range []string{"miss", "hit"} {
		if got := e.computePath(start, dst); !samePath(got, &fresh) {
			return fmt.Errorf("router %d → %v: memoised walk (%s) %+v differs from a fresh walk %+v", start, dst, pass, *got, fresh)
		}
	}
	prefix, routed := e.Tab.Lookup(dst)
	if !routed {
		return nil
	}
	rib := e.Tab.Routes(prefix)
	for _, st := range fresh.steps {
		got, gotOK := e.chooseEgress(st.router, prefix, rib)
		want, wantOK := e.chooseEgressOracle(st.router, prefix, rib)
		if got != want || gotOK != wantOK {
			return fmt.Errorf("router %d → %v: chooseEgress at router %d = %+v, %t; the two-pass scan gives %+v, %t",
				start, dst, st.router.ID, got, gotOK, want, wantOK)
		}
	}
	return nil
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

// ClearCongestion removes all injected episodes.
func (e *Engine) ClearCongestion() {
	e.lat.mu.Lock()
	defer e.lat.mu.Unlock()
	e.lat.episodes.Store(nil)
}
