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
//   - a flat binary-radix longest-prefix-match trie over observed
//     interface addresses resolving any IP to the owning AS of its router
//     (§5.4 attribution), with zero allocations on the lookup path,
//   - a (near, far) hash index resolving a hop pair to its interdomain
//     link (§5.2 border placement),
//   - a per-AS index of a neighbor's interdomain links.
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
// "0.0.0.0" (the read API's "silent" spelling is linkJSON's, not this).
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
	// ascending by address on every construction path (a segment written
	// before that held is served in the order it carries). The flat pair
	// doubles as the linear-scan control the benchmarks keep to certify the
	// trie's speedup, and as the diff substrate.
	owners     []OwnerInfo
	ownerAddrs []netx.Addr
	lpm        lpmTable

	// The pair and neighbor indices are sorted flat arrays rather than
	// maps: binary-searchable with zero allocations, and — like the trie
	// node slice — directly representable as raw segment bytes, so a
	// segment open decodes them without rebuilding. pairKeys is sorted; on
	// duplicate (near, far) keys the lowest link index (lowest FarAS)
	// wins, matching the old first-write-wins map build. nbAS lists the
	// neighbor ASes sorted ascending, and nbOff[i]:nbOff[i+1] is the span
	// of nbAS[i]'s links in the (FarAS-major) sorted link slice.
	pairKeys []uint64
	pairVals []int32
	nbAS     []topo.ASN
	nbOff    []int32

	// degraded names the vantage points missing from this generation (a
	// fleet quorum publish before every VP completed). Empty for a full
	// generation.
	degraded []string
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
	// reproducible; the table is then ordered by address.
	//
	// Deduplication runs on dense interned address IDs and a flat seen
	// array, not an address-keyed map. When every result carries the same
	// intern table (the single-driver rounds loop), its IDs are consumed
	// directly; otherwise a compile-local table assigns them. ID() on a
	// shared table is a monotonic append — an address unseen by the driver
	// (none in practice, since router addresses come from traces) merely
	// extends it, which cross-round ID stability tolerates by design.
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
	sort.Sort(ownersByAddr{s})

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
	sort.SliceStable(links, func(i, j int) bool {
		a, b := links[i], links[j]
		if a.FarAS != b.FarAS {
			return a.FarAS < b.FarAS
		}
		if a.Near != b.Near {
			return a.Near < b.Near
		}
		return a.Far < b.Far
	})
}

// finishIndexes (re)derives every lookup structure from the snapshot's
// canonical data (links, ownerAddrs): the compiled trie, the sorted pair
// index, and the neighbor spans. Compile and diff application both
// converge here, so every construction path indexes identically.
func (s *Snapshot) finishIndexes() {
	sortLinks(s.links)

	b := newLPMBuilder()
	for i, a := range s.ownerAddrs {
		b.insert(netx.MakePrefix(a, 32), int32(i))
	}
	s.lpm = b.table()

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
	// index per key — the same first-write-wins the old map build had.
	type kv struct {
		k uint64
		v int32
	}
	kvs := make([]kv, len(s.links))
	for i, l := range s.links {
		kvs[i] = kv{pairKey(l.Near, l.Far), int32(i)}
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].k != kvs[j].k {
			return kvs[i].k < kvs[j].k
		}
		return kvs[i].v < kvs[j].v
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

// MarkDegraded records the vantage points this generation was published
// without — the fleet coordinator's quorum publish names the shards still
// in flight (or terminally degraded) at publish time. Must be called
// before the snapshot is published; the list is copied and sorted.
func (s *Snapshot) MarkDegraded(vps []string) {
	s.degraded = append([]string(nil), vps...)
	sort.Strings(s.degraded)
}

// Degraded lists the vantage points missing from this generation, sorted.
// Empty for a full generation. Read-only.
func (s *Snapshot) Degraded() []string { return s.degraded }

// Partial reports whether this generation was published before every
// vantage point completed (a later full generation heals it).
func (s *Snapshot) Partial() bool { return len(s.degraded) > 0 }

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

// Owner resolves an IP to the attribution of the router holding it, via
// longest-prefix match over the indexed interface addresses. This is the
// serving hot path: zero allocations per call.
func (s *Snapshot) Owner(a netx.Addr) (OwnerInfo, bool) {
	if e := s.lpm.lookup(a); e >= 0 {
		return s.owners[e], true
	}
	return OwnerInfo{}, false
}

// ownerLinear is the naive linear-scan resolution the compiled trie
// replaces, kept as the benchmark control and the fuzz oracle's shape.
func (s *Snapshot) ownerLinear(a netx.Addr) (OwnerInfo, bool) {
	for i, oa := range s.ownerAddrs {
		if oa == a {
			return s.owners[i], true
		}
	}
	return OwnerInfo{}, false
}

// Link resolves an observed (near, far) hop pair to its interdomain link.
// A far of zero queries the silent link at near. Zero allocations: the
// binary search is hand-rolled so no closure escapes.
func (s *Snapshot) Link(near, far netx.Addr) (Link, bool) {
	k := pairKey(near, far)
	lo, hi := 0, len(s.pairKeys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.pairKeys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.pairKeys) && s.pairKeys[lo] == k {
		return s.links[s.pairVals[lo]], true
	}
	return Link{}, false
}

// neighborSpan returns the half-open range of as's links in the sorted
// link slice, or (0, 0) when as has none.
func (s *Snapshot) neighborSpan(as topo.ASN) (int32, int32) {
	lo, hi := 0, len(s.nbAS)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.nbAS[mid] < as {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.nbAS) && s.nbAS[lo] == as {
		return s.nbOff[lo], s.nbOff[lo+1]
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
