package core

import (
	"fmt"
	"slices"
	"sort"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// The CAIDA/MIT congestion system (§2, §5.8) runs bdrmap from many VPs in
// one network and continuously: per-VP results are merged into a single
// network-wide border map, and successive maps are diffed to track
// interconnection changes. Merge and Diff implement those two operations.

// LinkKey identifies an interdomain link across VPs and runs: the
// canonical (smallest) observed address on each side plus the far AS.
// Silent links have a zero far address.
type LinkKey struct {
	Near  netx.Addr
	Far   netx.Addr
	FarAS topo.ASN
}

func (k LinkKey) String() string {
	far := k.Far.String()
	if k.Far.IsZero() {
		far = "(silent)"
	}
	return fmt.Sprintf("%v->%s %v", k.Near, far, k.FarAS)
}

// MergedLink is one link of the merged map with its observation history.
type MergedLink struct {
	Key       LinkKey
	Heuristic Heuristic
	// SeenBy lists the VPs that observed the link, sorted.
	SeenBy []string
}

// MergedMap is the union of per-VP inferences for one hosting network.
type MergedMap struct {
	Links []MergedLink
	// Neighbors maps each far AS to its link count.
	Neighbors map[topo.ASN]int
	// VPs lists the vantage points merged, sorted.
	VPs []string
}

// canonicalNear returns the canonical identity of a link's near router:
// the smallest address of its (alias-merged) node.
func canonicalNear(l *Link) netx.Addr {
	if l.Near != nil && len(l.Near.Addrs) > 0 {
		return l.Near.Addrs[0]
	}
	return l.NearAddr
}

// canonicalFar returns the far identity (zero for silent links).
func canonicalFar(l *Link) netx.Addr {
	if l.Far != nil && len(l.Far.Addrs) > 0 {
		return l.Far.Addrs[0]
	}
	return l.FarAddr
}

// Merge unions per-VP results into one map, folding them in index order.
// Links are deduplicated by canonical near/far identity; a link several
// VPs saw keeps the first VP's heuristic tag (ties are rare and cosmetic)
// and lists every observer in SeenBy. Nil results — VPs that produced
// nothing — are skipped.
func Merge(results []*Result) *MergedMap {
	m := &MergedMap{Neighbors: make(map[topo.ASN]int)}
	at := make(map[LinkKey]int)
	vps := make(map[string]bool)
	for _, res := range results {
		if res == nil {
			continue
		}
		vps[res.VPName] = true
		for _, l := range res.Links {
			k := LinkKey{Near: canonicalNear(l), Far: canonicalFar(l), FarAS: l.FarAS}
			i, ok := at[k]
			if !ok {
				i = len(m.Links)
				at[k] = i
				m.Links = append(m.Links, MergedLink{Key: k, Heuristic: l.Heuristic})
				m.Neighbors[k.FarAS]++
			}
			if ml := &m.Links[i]; !slices.Contains(ml.SeenBy, res.VPName) {
				ml.SeenBy = append(ml.SeenBy, res.VPName)
			}
		}
	}
	for i := range m.Links {
		sort.Strings(m.Links[i].SeenBy)
	}
	sort.Slice(m.Links, func(i, j int) bool {
		a, b := m.Links[i].Key, m.Links[j].Key
		if a.FarAS != b.FarAS {
			return a.FarAS < b.FarAS
		}
		if a.Near != b.Near {
			return a.Near < b.Near
		}
		return a.Far < b.Far
	})
	m.VPs = make([]string, 0, len(vps))
	for vp := range vps {
		m.VPs = append(m.VPs, vp)
	}
	sort.Strings(m.VPs)
	return m
}

// LinkCount returns the number of merged links.
func (m *MergedMap) LinkCount() int { return len(m.Links) }
