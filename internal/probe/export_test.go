package probe

import (
	"fmt"
	"slices"

	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

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
