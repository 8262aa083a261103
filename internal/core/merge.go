package core

import (
	"fmt"
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

// MergeAccumulator folds per-VP results into a merged map one result at a
// time, in whatever order they complete. The fleet coordinator feeds it
// from the completion stream; Snapshot then materializes a MergedMap that
// is byte-identical to folding the same results in VP-index order. The only
// fold-order-sensitive choice in the sequential merge is which VP's
// heuristic tag a shared link keeps (the first, in VP order), so each
// entry remembers the smallest fold ordinal seen and lets it win.
type MergeAccumulator struct {
	byKey map[LinkKey]*mergeEntry
	vps   map[string]bool
}

// mergeEntry is one link's accumulated observation state.
type mergeEntry struct {
	heuristic Heuristic
	ord       int // smallest fold ordinal that contributed, wins the heuristic
	seenBy    map[string]bool
}

// NewMergeAccumulator returns an empty accumulator.
func NewMergeAccumulator() *MergeAccumulator {
	return &MergeAccumulator{
		byKey: make(map[LinkKey]*mergeEntry),
		vps:   make(map[string]bool),
	}
}

// Fold adds one VP's result under fold ordinal ord (its canonical VP
// index). Nil results are ignored, matching Merge's tolerance for VPs
// that produced nothing. Folding is not concurrency-safe; the caller
// serializes completions.
func (a *MergeAccumulator) Fold(ord int, res *Result) {
	if res == nil {
		return
	}
	a.vps[res.VPName] = true
	for _, l := range res.Links {
		k := LinkKey{Near: canonicalNear(l), Far: canonicalFar(l), FarAS: l.FarAS}
		e := a.byKey[k]
		if e == nil {
			e = &mergeEntry{heuristic: l.Heuristic, ord: ord, seenBy: make(map[string]bool)}
			a.byKey[k] = e
		} else if ord < e.ord {
			// A lower-ordinal VP arrived late; its heuristic tag is the
			// one the sequential merge would have kept.
			e.heuristic = l.Heuristic
			e.ord = ord
		}
		e.seenBy[res.VPName] = true
	}
}

// Folded returns the number of distinct VP names folded so far.
func (a *MergeAccumulator) Folded() int { return len(a.vps) }

// Snapshot materializes the merged map from everything folded so far.
// The accumulator remains usable; later Folds extend the same state, so
// a quorum-time partial snapshot and the final one share one accumulator.
func (a *MergeAccumulator) Snapshot() *MergedMap {
	m := &MergedMap{Neighbors: make(map[topo.ASN]int)}
	for k, e := range a.byKey {
		ml := MergedLink{Key: k, Heuristic: e.heuristic, SeenBy: make([]string, 0, len(e.seenBy))}
		for vp := range e.seenBy {
			ml.SeenBy = append(ml.SeenBy, vp)
		}
		sort.Strings(ml.SeenBy)
		m.Links = append(m.Links, ml)
		m.Neighbors[k.FarAS]++
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
	m.VPs = make([]string, 0, len(a.vps))
	for vp := range a.vps {
		m.VPs = append(m.VPs, vp)
	}
	sort.Strings(m.VPs)
	return m
}

// Merge unions per-VP results into one map. Links are deduplicated by
// canonical near/far identity; heuristic tags keep the first VP's value
// (ties are rare and cosmetic). It is the sequential special case of the
// streaming accumulator: fold in index order, snapshot once.
func Merge(results []*Result) *MergedMap {
	acc := NewMergeAccumulator()
	for i, res := range results {
		acc.Fold(i, res)
	}
	return acc.Snapshot()
}

// LinkCount returns the number of merged links.
func (m *MergedMap) LinkCount() int { return len(m.Links) }

// NeighborASes returns the merged neighbor set, sorted.
func (m *MergedMap) NeighborASes() []topo.ASN {
	out := make([]topo.ASN, 0, len(m.Neighbors))
	for a := range m.Neighbors {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MapDiff is the change between two merged maps (two measurement rounds).
type MapDiff struct {
	Added   []MergedLink // present now, absent before
	Removed []MergedLink // present before, absent now
	// NeighborsAdded/Removed track AS-level churn.
	NeighborsAdded, NeighborsRemoved []topo.ASN
}

// Empty reports whether nothing changed.
func (d *MapDiff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0
}

// Diff compares two merged maps (old, new).
func Diff(prev, next *MergedMap) *MapDiff {
	d := &MapDiff{}
	prevSet := make(map[LinkKey]MergedLink, len(prev.Links))
	for _, l := range prev.Links {
		prevSet[l.Key] = l
	}
	nextSet := make(map[LinkKey]MergedLink, len(next.Links))
	for _, l := range next.Links {
		nextSet[l.Key] = l
		if _, ok := prevSet[l.Key]; !ok {
			d.Added = append(d.Added, l)
		}
	}
	for _, l := range prev.Links {
		if _, ok := nextSet[l.Key]; !ok {
			d.Removed = append(d.Removed, l)
		}
	}
	for a := range next.Neighbors {
		if prev.Neighbors[a] == 0 {
			d.NeighborsAdded = append(d.NeighborsAdded, a)
		}
	}
	for a := range prev.Neighbors {
		if next.Neighbors[a] == 0 {
			d.NeighborsRemoved = append(d.NeighborsRemoved, a)
		}
	}
	sort.Slice(d.NeighborsAdded, func(i, j int) bool { return d.NeighborsAdded[i] < d.NeighborsAdded[j] })
	sort.Slice(d.NeighborsRemoved, func(i, j int) bool { return d.NeighborsRemoved[i] < d.NeighborsRemoved[j] })
	return d
}
