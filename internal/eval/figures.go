package eval

import (
	"fmt"
	"sort"
	"strings"

	"bdrmap/internal/core"
	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// boundary is one observed interdomain crossing: the last host-side hop
// and the first neighbor-side inference. Border routers are identified by
// their canonical (smallest) observed address so they can be compared
// across VPs.
type boundary struct {
	nearID netx.Addr
	nextAS topo.ASN
}

// boundaries extracts, per destination prefix, the interdomain crossing of
// each trace in one VP's dataset.
func (s *Scenario) boundaries(vp int) map[netx.Prefix][]boundary {
	res := s.Results[vp]
	ds := s.Datasets[vp]
	out := make(map[netx.Prefix][]boundary)
	for _, tr := range ds.Traces {
		prefix, ok := s.Tab.Lookup(tr.Dst)
		if !ok {
			continue
		}
		var prev *core.RouterNode
		for _, h := range tr.Hops {
			if h.Type != probe.HopTimeExceeded {
				continue
			}
			node := res.RouterByAddr(h.Addr)
			if node == nil {
				prev = nil
				continue
			}
			if prev != nil && prev.IsHost && !node.IsHost && node.Owner != 0 {
				out[prefix] = append(out[prefix], boundary{
					nearID: prev.Addrs[0],
					nextAS: node.Owner,
				})
				break
			}
			prev = node
		}
	}
	return out
}

// Figure14 is the distribution of per-prefix egress diversity across all
// VPs: how many distinct border routers and next-hop ASes carry probe
// traffic toward each destination prefix.
type Figure14 struct {
	Prefixes   int
	BorderHist map[int]int // #border routers -> #prefixes
	NextASHist map[int]int // #next-hop ASes  -> #prefixes
}

// BuildFigure14 computes the figure over all measured VPs.
func BuildFigure14(s *Scenario) *Figure14 {
	borders := make(map[netx.Prefix]map[netx.Addr]bool)
	nexts := make(map[netx.Prefix]map[topo.ASN]bool)
	for i := range s.Net.VPs {
		if s.Results[i] == nil {
			continue
		}
		for p, bs := range s.boundaries(i) {
			if borders[p] == nil {
				borders[p] = make(map[netx.Addr]bool)
				nexts[p] = make(map[topo.ASN]bool)
			}
			for _, b := range bs {
				borders[p][b.nearID] = true
				nexts[p][b.nextAS] = true
			}
		}
	}
	f := &Figure14{
		BorderHist: make(map[int]int),
		NextASHist: make(map[int]int),
	}
	for p := range borders {
		f.Prefixes++
		f.BorderHist[len(borders[p])]++
		f.NextASHist[len(nexts[p])]++
	}
	return f
}

// FracWithin returns the fraction of prefixes whose count lies in [lo,hi].
func fracWithin(hist map[int]int, total, lo, hi int) float64 {
	if total == 0 {
		return 0
	}
	n := 0
	for k, v := range hist {
		if k >= lo && k <= hi {
			n += v
		}
	}
	return float64(n) / float64(total)
}

// BorderFrac returns the fraction of prefixes with lo..hi border routers.
func (f *Figure14) BorderFrac(lo, hi int) float64 {
	return fracWithin(f.BorderHist, f.Prefixes, lo, hi)
}

// NextASFrac returns the fraction of prefixes with lo..hi next-hop ASes.
func (f *Figure14) NextASFrac(lo, hi int) float64 {
	return fracWithin(f.NextASHist, f.Prefixes, lo, hi)
}

// Format renders both CDFs.
func (f *Figure14) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 14: egress diversity over %d prefixes\n", f.Prefixes)
	render := func(name string, hist map[int]int) {
		var ks []int
		for k := range hist {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		cum := 0
		fmt.Fprintf(&b, "  %s (count -> CDF):\n", name)
		for _, k := range ks {
			cum += hist[k]
			fmt.Fprintf(&b, "    %3d  %.3f\n", k, float64(cum)/float64(f.Prefixes))
		}
	}
	render("border routers", f.BorderHist)
	render("next-hop ASes", f.NextASHist)
	return b.String()
}

// Figure15 measures the marginal utility of VPs: for each studied
// neighbor network, the cumulative number of distinct interdomain links
// discovered as VPs are added in deployment order.
type Figure15 struct {
	Networks []Fig15Series
	NumVPs   int
}

// Fig15Series is one neighbor network's discovery curve.
type Fig15Series struct {
	Name       string
	ASN        topo.ASN
	TrueLinks  int   // ground-truth link count with the host
	Cumulative []int // links discovered with 1..n VPs
}

// fig15Targets picks the networks to study: tagged big peers and CDNs.
func (s *Scenario) fig15Targets() []Fig15Series {
	var out []Fig15Series
	var names []string
	for name := range s.Net.Tags {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		asn := s.Net.Tags[name]
		truth := 0
		for _, lt := range s.Net.InterdomainLinks(s.Net.HostASN) {
			if lt.FarAS == asn {
				truth++
			}
		}
		out = append(out, Fig15Series{Name: name, ASN: asn, TrueLinks: truth})
	}
	return out
}

// BuildFigure15 computes discovery curves over the measured VPs: a
// network's value at k VPs is its link count in the merged map of the
// first k VPs' results (core.Merge).
func BuildFigure15(s *Scenario) *Figure15 {
	f := &Figure15{NumVPs: len(s.Net.VPs)}
	targets := s.fig15Targets()
	for k := 1; k <= len(s.Net.VPs); k++ {
		merged := core.Merge(s.Results[:k])
		for ti := range targets {
			targets[ti].Cumulative = append(targets[ti].Cumulative, merged.Neighbors[targets[ti].ASN])
		}
	}
	f.Networks = targets
	return f
}

// VPsToSeeAll returns how many VPs were needed to observe every link the
// full deployment observed (0 if none observed).
func (sr Fig15Series) VPsToSeeAll() int {
	if len(sr.Cumulative) == 0 {
		return 0
	}
	max := sr.Cumulative[len(sr.Cumulative)-1]
	if max == 0 {
		return 0
	}
	for i, v := range sr.Cumulative {
		if v == max {
			return i + 1
		}
	}
	return len(sr.Cumulative)
}

// Format renders the curves.
func (f *Figure15) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15: marginal utility of VPs (%d VPs)\n", f.NumVPs)
	for _, sr := range f.Networks {
		fmt.Fprintf(&b, "  %-14s (AS %d, %d true links): %v  [all seen with %d VPs]\n",
			sr.Name, sr.ASN, sr.TrueLinks, sr.Cumulative, sr.VPsToSeeAll())
	}
	return b.String()
}

// Figure16 records, per studied neighbor, the longitudes of the
// interdomain links each VP observes, against the VP's own longitude.
type Figure16 struct {
	Networks []Fig16Network
}

// Fig16Network is the geographic observation matrix of one neighbor.
type Fig16Network struct {
	Name string
	ASN  topo.ASN
	Rows []Fig16Row
}

// Fig16Row is one VP's view: its longitude and the longitudes of links
// it observed toward the neighbor.
type Fig16Row struct {
	VPName   string
	VPLon    float64
	LinkLons []float64
}

// BuildFigure16 derives the matrix from the measured VPs. Longitudes come
// from the topology's router placement, standing in for the reverse-DNS
// location hints the paper used.
func BuildFigure16(s *Scenario) *Figure16 {
	f := &Figure16{}
	for _, tgt := range s.fig15Targets() {
		nw := Fig16Network{Name: tgt.Name, ASN: tgt.ASN}
		for i, vp := range s.Net.VPs {
			if s.Results[i] == nil {
				continue
			}
			row := Fig16Row{VPName: vp.Name, VPLon: s.Net.Router(vp.Router).Longitude}
			seen := map[float64]bool{}
			for _, l := range s.Results[i].Neighbors[tgt.ASN] {
				if r := s.Net.RouterByAddr(l.Near.Addrs[0]); r != nil && !seen[r.Longitude] {
					seen[r.Longitude] = true
					row.LinkLons = append(row.LinkLons, r.Longitude)
				}
			}
			sort.Float64s(row.LinkLons)
			nw.Rows = append(nw.Rows, row)
		}
		f.Networks = append(f.Networks, nw)
	}
	return f
}

// Format renders the matrix.
func (f *Figure16) Format() string {
	var b strings.Builder
	b.WriteString("Figure 16: VP longitude vs observed link longitudes\n")
	for _, nw := range f.Networks {
		fmt.Fprintf(&b, "  %s (AS %d):\n", nw.Name, nw.ASN)
		for _, r := range nw.Rows {
			fmt.Fprintf(&b, "    %-12s lon %7.1f links %v\n", r.VPName, r.VPLon, r.LinkLons)
		}
	}
	return b.String()
}
