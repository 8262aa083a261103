// Package sibling provides the AS-to-organization mapping bdrmap needs to
// group sibling ASes (§5.2 "VP ASes"). The paper derives candidate siblings
// from WHOIS-based AS-to-organization inference, which is known to contain
// false and missing entries, then curates the list for the VP's network by
// hand — the only input requiring manual oversight. This package mirrors
// that workflow: FromNetwork builds a WHOIS-like dataset with injected
// defects, and Set supports manual correction.
package sibling

import (
	"math/rand"
	"sort"

	"bdrmap/internal/topo"
)

// OrgRecord is a WHOIS-derived AS-to-organization entry.
type OrgRecord struct {
	ASN   topo.ASN
	OrgID string
}

// Set is a queryable sibling mapping with manual overrides layered on top
// of the WHOIS-derived records.
type Set struct {
	org     map[topo.ASN]string
	added   map[[2]topo.ASN]bool // manual: force same-org
	removed map[[2]topo.ASN]bool // manual: force different-org
}

// New builds a Set from raw records.
func New(recs []OrgRecord) *Set {
	s := &Set{
		org:     make(map[topo.ASN]string, len(recs)),
		added:   make(map[[2]topo.ASN]bool),
		removed: make(map[[2]topo.ASN]bool),
	}
	for _, r := range recs {
		s.org[r.ASN] = r.OrgID
	}
	return s
}

// FromNetwork derives WHOIS-like records from ground truth with realistic
// defects: a few ASes have no record (stale WHOIS), and a few unrelated
// ASes are wrongly merged into one organization.
func FromNetwork(net *topo.Network, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	asns := net.ASNs()
	s := New(nil)
	s.org = make(map[topo.ASN]string, len(asns))
	for _, asn := range asns {
		if rng.Float64() < 0.03 {
			continue // missing record
		}
		org := net.ASes[asn].Org
		if rng.Float64() < 0.02 && len(asns) > 1 {
			// Spurious merge: copy another AS's org.
			org = net.ASes[asns[rng.Intn(len(asns))]].Org
		}
		s.org[asn] = org
	}
	return s
}

// SameOrg reports whether a and b are believed to be siblings, after
// manual overrides.
func (s *Set) SameOrg(a, b topo.ASN) bool {
	if a == b {
		return true
	}
	k := pairKey(a, b)
	if s.added[k] {
		return true
	}
	if s.removed[k] {
		return false
	}
	oa, oka := s.org[a]
	ob, okb := s.org[b]
	return oka && okb && oa == ob
}

// Add manually marks a and b as siblings.
func (s *Set) Add(a, b topo.ASN) {
	k := pairKey(a, b)
	delete(s.removed, k)
	s.added[k] = true
}

// Remove manually marks a and b as not siblings.
func (s *Set) Remove(a, b topo.ASN) {
	k := pairKey(a, b)
	delete(s.added, k)
	s.removed[k] = true
}

// SiblingsOf returns all recorded siblings of asn (excluding asn), sorted.
func (s *Set) SiblingsOf(asn topo.ASN) []topo.ASN {
	var out []topo.ASN
	seen := map[topo.ASN]bool{}
	if org, ok := s.org[asn]; ok {
		for a, o := range s.org {
			if a != asn && o == org && !s.removed[pairKey(a, asn)] {
				out = append(out, a)
				seen[a] = true
			}
		}
	}
	for k := range s.added {
		var other topo.ASN
		switch {
		case k[0] == asn:
			other = k[1]
		case k[1] == asn:
			other = k[0]
		default:
			continue
		}
		if !seen[other] {
			out = append(out, other)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CurateHost corrects the host network's sibling set against ground truth,
// reproducing §5.2: "we seeded our manual inference with [the public
// mapping], manually added missing siblings, and removed spurious
// siblings." Only the host organization is curated — everything else keeps
// its WHOIS defects.
func (s *Set) CurateHost(net *topo.Network) {
	truth := make(map[topo.ASN]bool)
	for _, sib := range net.Siblings(net.HostASN) {
		truth[sib] = true
	}
	for sib := range truth {
		if sib != net.HostASN && !s.SameOrg(net.HostASN, sib) {
			s.Add(net.HostASN, sib)
		}
	}
	for _, cur := range s.SiblingsOf(net.HostASN) {
		if !truth[cur] {
			s.Remove(net.HostASN, cur)
		}
	}
}

func pairKey(a, b topo.ASN) [2]topo.ASN {
	if a < b {
		return [2]topo.ASN{a, b}
	}
	return [2]topo.ASN{b, a}
}
