package eval

import (
	"fmt"
	"strings"

	"bdrmap/internal/core"
	"bdrmap/internal/topo"
)

// Table1 reproduces the paper's Table 1 for one network: per neighbor
// class (customer / peer / provider / trace-only), how many neighbor
// routers each heuristic attributed, plus BGP-coverage statistics.
type Table1 struct {
	Network string

	// ObservedBGP counts BGP-visible neighbor ASes per class.
	ObservedBGP [numClasses]int
	// ObservedBdrmap counts those with at least one inferred link.
	ObservedBdrmap [numClasses]int
	// TraceOnly counts neighbors inferred only from traceroute.
	TraceOnly int

	// Rows: per heuristic, neighbor-router counts per class.
	Rows map[core.Heuristic]*[numClasses]int
	// RouterTotals: neighbor routers per class.
	RouterTotals [numClasses]int
}

// rowOrder mirrors the paper's presentation order.
var rowOrder = []core.Heuristic{
	core.HeurMultihomed,
	core.HeurFirewall,
	core.HeurUnrouted,
	core.HeurOnenet,
	core.HeurThirdParty,
	core.HeurRelationship,
	core.HeurMissingCust,
	core.HeurHiddenPeer,
	core.HeurCount,
	core.HeurIPAS,
	core.HeurIXP,
	core.HeurSilent,
	core.HeurOtherICMP,
}

// BuildTable1 computes the table from one VP's result.
func BuildTable1(s *Scenario, res *core.Result) *Table1 {
	t := &Table1{
		Network: s.Profile.Name,
		Rows:    make(map[core.Heuristic]*[numClasses]int),
	}
	// BGP-visible neighbors per class.
	for _, nb := range s.View.NeighborsOf(s.Net.HostASN) {
		if s.hostOrg(nb) {
			continue
		}
		c := s.classify(nb)
		t.ObservedBGP[c]++
		if len(res.Neighbors[nb]) > 0 {
			t.ObservedBdrmap[c]++
		}
	}
	// Neighbor routers per heuristic. Every inferred link's far side is a
	// neighbor router (silent links count as one unobserved router).
	type farKey struct {
		far *core.RouterNode
		as  topo.ASN
	}
	counted := make(map[farKey]bool)
	for _, l := range res.Links {
		k := farKey{l.Far, l.FarAS}
		if l.Far != nil && counted[k] {
			continue
		}
		counted[k] = true
		c := s.classify(l.FarAS)
		if c == classTraceOnly && l.Far != nil {
			// count trace-only neighbors once per AS below
		}
		row := t.Rows[l.Heuristic]
		if row == nil {
			row = new([numClasses]int)
			t.Rows[l.Heuristic] = row
		}
		row[c]++
		t.RouterTotals[c]++
	}
	seenTrace := make(map[topo.ASN]bool)
	for as := range res.Neighbors {
		if s.classify(as) == classTraceOnly && !seenTrace[as] {
			seenTrace[as] = true
			t.TraceOnly++
		}
	}
	return t
}

// CoveragePct returns the fraction of BGP-observed neighbors that bdrmap
// found, across all classes.
func (t *Table1) CoveragePct() float64 {
	obs, got := 0, 0
	for c := 0; c < int(numClasses)-1; c++ {
		obs += t.ObservedBGP[c]
		got += t.ObservedBdrmap[c]
	}
	if obs == 0 {
		return 0
	}
	return 100 * float64(got) / float64(obs)
}

// Format renders the table in the paper's layout: one column per class,
// heuristic rows as percentages of that class's neighbor routers.
func (t *Table1) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %8s %8s %8s\n", t.Network, "cust", "peer", "prov", "trace")
	fmt.Fprintf(&b, "%-22s %8d %8d %8d %8s\n", "Observed in BGP",
		t.ObservedBGP[classCust], t.ObservedBGP[classPeer], t.ObservedBGP[classProv], "")
	fmt.Fprintf(&b, "%-22s %8d %8d %8d %8d\n", "Observed in bdrmap",
		t.ObservedBdrmap[classCust], t.ObservedBdrmap[classPeer], t.ObservedBdrmap[classProv], t.TraceOnly)
	fmt.Fprintf(&b, "%-22s %7.1f%%\n", "Coverage of BGP", t.CoveragePct())

	pct := func(h core.Heuristic, c neighborClass) string {
		row := t.Rows[h]
		if row == nil || row[c] == 0 || t.RouterTotals[c] == 0 {
			return ""
		}
		return fmt.Sprintf("%.1f%%", 100*float64(row[c])/float64(t.RouterTotals[c]))
	}
	names := map[core.Heuristic]string{
		core.HeurMultihomed:   "1. Multihomed to VP",
		core.HeurFirewall:     "2. Firewall",
		core.HeurUnrouted:     "3. Unrouted interface",
		core.HeurOnenet:       "4. IP-AS (onenet)",
		core.HeurThirdParty:   "5. Third party",
		core.HeurRelationship: "5. AS relationship",
		core.HeurMissingCust:  "5. Missing customer",
		core.HeurHiddenPeer:   "5. Hidden peer",
		core.HeurCount:        "6. Count",
		core.HeurIPAS:         "6. IP-AS",
		core.HeurIXP:          "6. IXP",
		core.HeurSilent:       "8. Silent neighbor",
		core.HeurOtherICMP:    "8. Other ICMP",
	}
	for _, h := range rowOrder {
		if t.Rows[h] == nil {
			continue
		}
		fmt.Fprintf(&b, "%-22s %8s %8s %8s %8s\n", names[h],
			pct(h, classCust), pct(h, classPeer), pct(h, classProv), pct(h, classTraceOnly))
	}
	fmt.Fprintf(&b, "%-22s %8d %8d %8d %8d\n", "Neighbor routers",
		t.RouterTotals[classCust], t.RouterTotals[classPeer],
		t.RouterTotals[classProv], t.RouterTotals[classTraceOnly])
	return b.String()
}
