// Package mapdb is the serving layer over bdrmap's inference output: an
// immutable, generation-versioned border-map database compiled from per-VP
// inference results, designed for lock-free concurrent reads.
//
// The paper's output — border routers, interdomain links, and neighbor-AS
// ownership — is exactly the dataset CAIDA operates as a continuously
// refreshed service (§2, §6). Consumers reduce to point queries: the TSLP
// congestion monitor asks "is this hop pair an interdomain link?", a
// catchment analysis asks "which AS owns the router behind this
// interface?", and AS-relationship consumers want the neighbor set of an
// AS. Re-walking a whole Result per query does not survive serving load,
// so mapdb compiles each measurement round into a Snapshot:
//
//   - the observed interface addresses, sorted, each resolving by binary
//     search to the owning AS of its router (§5.4 attribution). The match
//     is exact: the prefix covering an interface does not name its
//     router's owner (§4), so an address nobody observed has no answer,
//   - a sorted (near, far) index resolving a hop pair to its interdomain
//     link (§5.2 border placement),
//   - a per-AS index of a neighbor's interdomain links.
//
// The canonical data is the link list and the owner table; every index is
// derived from them by one builder whichever way a Snapshot came to be —
// compiled, rebuilt from a diff, or opened from a segment.
//
// A Store swaps Snapshots atomically (readers never block writers and
// vice versa), retains a bounded generation history, and computes
// per-generation GenDiffs — links appeared/vanished, owner changes — so
// interconnection churn is a first-class queryable event stream, the
// continuous-monitoring mode the paper describes operationally. Rounds
// drives that loop on a mutating synthetic world, and Handler serves the
// whole thing over HTTP/JSON from bdrmapd.
package mapdb

import (
	"cmp"
	"slices"
	"sort"

	"bdrmap/internal/core"
	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// OwnerInfo is the attribution of one observed interface address: the AS
// inferred to operate the router holding it (§5.4), the heuristic that
// made the call, and the router's hop distance from the VP.
type OwnerInfo struct {
	AS        topo.ASN `json:"as"`
	Heuristic string   `json:"heuristic,omitempty"`
	// Host reports the router was attributed to the hosting organization.
	Host bool `json:"host,omitempty"`
	// HopDist is the minimum TTL at which the router was observed.
	HopDist int `json:"hop_dist,omitempty"`
}

// Link is one interdomain link of the hosting network as served by the
// database: the observed near/far addresses (Far zero for silent
// neighbors), the inferred far AS, and the heuristic that attributed it.
// Its JSON form is the replication wire's: a silent link's far address is
// "0.0.0.0" (the read API's "silent" spelling is appendLink's, not this).
type Link struct {
	Near      netx.Addr `json:"near"`
	Far       netx.Addr `json:"far"`
	FarAS     topo.ASN  `json:"far_as"`
	Heuristic string    `json:"heuristic,omitempty"`
}

// Snapshot is one immutable compiled generation of the border map. All
// methods are safe for unlimited concurrent use; the lookup hot paths
// (Owner, Link) perform no allocations.
type Snapshot struct {
	gen  int
	host topo.ASN
	vps  []string

	links []Link // sorted by (FarAS, Near, Far)

	// Interface-address attribution: ownerAddrs[i] resolves to owners[i],
	// strictly ascending by address. The sorted addresses are the owner
	// index itself (Owner binary-searches them) and the diff substrate.
	owners     []OwnerInfo
	ownerAddrs []netx.Addr

	// The pair and neighbor indexes, derived from links by finishIndexes
	// and nowhere else: sorted flat arrays, binary-searchable with zero
	// allocations. pairKeys is sorted and holds no zero near; on duplicate
	// (near, far) keys the lowest link index (lowest FarAS) wins. nbAS
	// lists the neighbor ASes ascending, and nbOff[i]:nbOff[i+1] is the
	// span of nbAS[i]'s links in the (FarAS-major) sorted link slice.
	pairKeys []uint64
	pairVals []int32
	nbAS     []topo.ASN
	nbOff    []int32
}

func pairKey(near, far netx.Addr) uint64 {
	return uint64(near)<<32 | uint64(far)
}

// sharedIntern returns the intern table every non-nil result carries, or
// nil when results disagree (or carry none).
func sharedIntern(results []*core.Result) *netx.Intern {
	var it *netx.Intern
	for _, res := range results {
		if res == nil {
			continue
		}
		if res.Intern == nil {
			return nil
		}
		if it == nil {
			it = res.Intern
		} else if it != res.Intern {
			return nil
		}
	}
	return it
}

// Compile builds a Snapshot from per-VP inference results. It is a pure
// read of the results: inference output is never modified, and compiling
// the same results yields an identical snapshot. The layout is canonical —
// links by (FarAS, Near, Far), owners by address — so the snapshot's
// WriteTo image equals that of the same generation opened from a segment
// or rebuilt by Apply. The generation number is assigned when the snapshot
// is published to a Store (zero until then).
func Compile(host topo.ASN, results []*core.Result) *Snapshot {
	s := &Snapshot{host: host}

	// Interface attribution from the alias-merged router nodes: every
	// observed address of an attributed router resolves to that router's
	// owner. First write wins, and iteration order is the deterministic
	// result/router/address order, so which record an address keeps is
	// reproducible; finishIndexes then orders the table by address.
	//
	// Deduplication runs on dense interned address IDs and a flat seen
	// array, not an address-keyed map. When every result carries the same
	// intern table (a one-VP map), its IDs are consumed directly;
	// otherwise a compile-local table assigns them. ID() on a result's
	// table is a monotonic append — an address its inference did not
	// intern (none in practice, since router addresses come from traces)
	// merely extends it.
	it := sharedIntern(results)
	if it == nil {
		it = netx.NewIntern(1024)
	}
	seen := make([]bool, it.Len())
	seenVP := make(map[string]bool)
	for _, res := range results {
		if res == nil {
			continue
		}
		if !seenVP[res.VPName] {
			seenVP[res.VPName] = true
			s.vps = append(s.vps, res.VPName)
		}
		for _, rn := range res.Routers {
			if rn.Owner == 0 {
				continue
			}
			for _, a := range rn.Addrs {
				if a.IsZero() {
					continue
				}
				id := it.ID(a)
				for int(id) >= len(seen) {
					seen = append(seen, false)
				}
				if seen[id] {
					continue
				}
				seen[id] = true
				s.ownerAddrs = append(s.ownerAddrs, a)
				s.owners = append(s.owners, OwnerInfo{
					AS:        rn.Owner,
					Heuristic: string(rn.Heuristic),
					Host:      rn.IsHost,
					HopDist:   rn.HopDist,
				})
			}
		}
	}
	sort.Strings(s.vps)

	// Observed links, deduplicated across VPs by the observed
	// (near, far, farAS) triple — the identity a hop-pair query carries.
	seenLink := make(map[Link]bool)
	for _, res := range results {
		if res == nil {
			continue
		}
		for _, l := range res.Links {
			k := Link{Near: l.NearAddr, Far: l.FarAddr, FarAS: l.FarAS}
			if seenLink[k] {
				continue
			}
			seenLink[k] = true
			k.Heuristic = string(l.Heuristic)
			s.links = append(s.links, k)
		}
	}
	s.finishIndexes()
	return s
}

// ownersByAddr sorts a snapshot's parallel owner table by address — a
// total order, since the table holds each address once.
type ownersByAddr struct{ s *Snapshot }

func (o ownersByAddr) Len() int           { return len(o.s.ownerAddrs) }
func (o ownersByAddr) Less(i, j int) bool { return o.s.ownerAddrs[i] < o.s.ownerAddrs[j] }
func (o ownersByAddr) Swap(i, j int) {
	o.s.ownerAddrs[i], o.s.ownerAddrs[j] = o.s.ownerAddrs[j], o.s.ownerAddrs[i]
	o.s.owners[i], o.s.owners[j] = o.s.owners[j], o.s.owners[i]
}

// sortLinks orders links by (FarAS, Near, Far) — a total order, since the
// triple is each link's deduplicated identity.
func sortLinks(links []Link) {
	slices.SortStableFunc(links, func(a, b Link) int {
		return cmp.Or(cmp.Compare(a.FarAS, b.FarAS), cmp.Compare(a.Near, b.Near), cmp.Compare(a.Far, b.Far))
	})
}

// finishIndexes puts the snapshot's data (links, owner table) in canonical
// order and derives every lookup structure from it: the sorted owner
// addresses, the sorted pair index, and the neighbor spans. Compile, Apply
// and ReadSegment all end here, so every construction path canonicalises
// and indexes identically and an index cannot disagree with its data.
func (s *Snapshot) finishIndexes() {
	sortLinks(s.links)
	sort.Sort(ownersByAddr{s})

	// Neighbor spans: links are FarAS-major, so each AS's links occupy one
	// contiguous range. nbOff carries len(nbAS)+1 boundaries.
	s.nbAS = s.nbAS[:0]
	s.nbOff = append(s.nbOff[:0], 0)
	for i, l := range s.links {
		if n := len(s.nbAS); n == 0 || s.nbAS[n-1] != l.FarAS {
			s.nbAS = append(s.nbAS, l.FarAS)
			s.nbOff = append(s.nbOff, 0)
		}
		s.nbOff[len(s.nbOff)-1] = int32(i + 1)
	}

	// Pair index: (near, far) keys sorted for binary search. Links sort
	// FarAS-major, so equal keys (same hop pair claimed for two far ASes)
	// are not adjacent; sort by (key, link index) and keep the lowest
	// index per key. A link whose near side was never observed (near zero)
	// names no hop pair and stays out: unrelated unobserved links would
	// otherwise collapse onto one key and answer for each other.
	type kv struct {
		k uint64
		v int32
	}
	kvs := make([]kv, 0, len(s.links))
	for i, l := range s.links {
		if !l.Near.IsZero() {
			kvs = append(kvs, kv{pairKey(l.Near, l.Far), int32(i)})
		}
	}
	slices.SortFunc(kvs, func(a, b kv) int {
		return cmp.Or(cmp.Compare(a.k, b.k), cmp.Compare(a.v, b.v))
	})
	s.pairKeys = s.pairKeys[:0]
	s.pairVals = s.pairVals[:0]
	for _, e := range kvs {
		if n := len(s.pairKeys); n > 0 && s.pairKeys[n-1] == e.k {
			continue
		}
		s.pairKeys = append(s.pairKeys, e.k)
		s.pairVals = append(s.pairVals, e.v)
	}
}

// Gen returns the snapshot's generation number (0 before publication).
func (s *Snapshot) Gen() int { return s.gen }

// HostASN returns the hosting network the map describes.
func (s *Snapshot) HostASN() topo.ASN { return s.host }

// VPs lists the vantage points compiled in, sorted.
func (s *Snapshot) VPs() []string { return s.vps }

// NumLinks returns the number of served interdomain links.
func (s *Snapshot) NumLinks() int { return len(s.links) }

// NumOwners returns the number of indexed interface addresses.
func (s *Snapshot) NumOwners() int { return len(s.owners) }

// Links returns the served link set, sorted by (FarAS, Near, Far). The
// returned slice is the snapshot's backing store: read-only.
func (s *Snapshot) Links() []Link { return s.links }

// Owner resolves an observed interface address to the attribution of the
// router holding it. The match is exact — an address that was not itself
// observed has no answer, whatever prefix covers it (§4: a router's owner
// cannot be read off the prefix its interface is numbered from). This is
// the serving hot path: a binary search, zero allocations per call.
func (s *Snapshot) Owner(a netx.Addr) (OwnerInfo, bool) {
	if i, ok := slices.BinarySearch(s.ownerAddrs, a); ok {
		return s.owners[i], true
	}
	return OwnerInfo{}, false
}

// Link resolves an observed (near, far) hop pair to its interdomain link.
// A far of zero queries the silent link at near. A near of zero matches
// nothing: a link whose near side was never observed is served by Links,
// Neighbors and diffs, but is no hop pair. Zero allocations.
func (s *Snapshot) Link(near, far netx.Addr) (Link, bool) {
	if i, ok := slices.BinarySearch(s.pairKeys, pairKey(near, far)); ok {
		return s.links[s.pairVals[i]], true
	}
	return Link{}, false
}

// neighborSpan returns the half-open range of as's links in the sorted
// link slice, or (0, 0) when as has none.
func (s *Snapshot) neighborSpan(as topo.ASN) (int32, int32) {
	if i, ok := slices.BinarySearch(s.nbAS, as); ok {
		return s.nbOff[i], s.nbOff[i+1]
	}
	return 0, 0
}

// Neighbors returns the interdomain links attaching neighbor AS `as`,
// sorted by (Near, Far). The slice is freshly allocated.
func (s *Snapshot) Neighbors(as topo.ASN) []Link {
	lo, hi := s.neighborSpan(as)
	out := make([]Link, hi-lo)
	copy(out, s.links[lo:hi])
	return out
}

// NeighborASes returns every neighbor AS with at least one link, sorted.
func (s *Snapshot) NeighborASes() []topo.ASN {
	out := make([]topo.ASN, len(s.nbAS))
	copy(out, s.nbAS)
	return out
}

// NumNeighbors returns the number of distinct neighbor ASes.
func (s *Snapshot) NumNeighbors() int { return len(s.nbAS) }
