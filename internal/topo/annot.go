package topo

import (
	"time"

	"bdrmap/internal/netx"
)

// Link annotations: every link carries a deterministic latency / bandwidth /
// geography record. The values are derived from a per-AS seeded hash of
// (Network.AnnotSeed, owning AS, subnet) rather than from the generator's
// sequential RNG, so they are invariant under generation order — adding a
// neighbor class, reordering profile fields, or generating under a different
// worker count cannot shift another link's annotation. The baseline latency
// reproduces the probe engine's geographic formula exactly (500µs
// serialization + 0.35ms per degree of longitude), so annotating a world
// changes no measured RTT; the hash only decides the bandwidth class and the
// remote-peering placement below.

// Annotation records the physical characteristics of one link.
type Annotation struct {
	// Latency is the one-way propagation + serialization delay of crossing
	// the link (excluding queueing and any per-interface attachment circuit).
	Latency time.Duration
	// BandwidthMbps is the link's nominal capacity class.
	BandwidthMbps int
	// LonA and LonB are the longitudes of the link's two endpoints (equal
	// for IXP LANs, whose fabric is a single facility).
	LonA, LonB float64
}

// asSeed derives the per-AS annotation stream from the network seed.
func asSeed(seed int64, asn ASN) uint64 {
	return netx.Mix64(netx.Mix64(uint64(seed)) ^ uint64(asn))
}

// linkDraw derives the per-link draw within an AS's stream: the subnet is
// the link's stable identity (unique per network, survives reordering).
func linkDraw(seed int64, asn ASN, subnet netx.Prefix) uint64 {
	return netx.Mix64(asSeed(seed, asn) ^ netx.Mix64(uint64(subnet.First())<<8|uint64(subnet.Len)))
}

// bandwidth classes per link kind, in Mbps. IXP fabrics and backbone links
// run fat; interdomain edges span the 10G–100G range.
var (
	bwLAN         = []int{100_000, 400_000}
	bwInternal    = []int{40_000, 100_000, 400_000}
	bwInterdomain = []int{10_000, 40_000, 100_000}
)

// annotateLink computes and stores l's annotation. The latency reproduces
// the geographic delay model byte-for-byte: 500µs plus 0.35ms per degree of
// longitude between the link's two endpoint routers. IXP LANs and
// single-interface stub links are a single facility (zero geographic gap);
// a remote member's distance is carried by its interface AttachDelay, not
// by the shared fabric.
func (n *Network) annotateLink(l *Link) {
	var lonA, lonB float64
	if len(l.Ifaces) > 0 {
		if r := n.Router(l.Ifaces[0].Router); r != nil {
			lonA = r.Longitude
		}
	}
	lonB = lonA
	if l.Kind != LinkIXPLAN && len(l.Ifaces) > 1 {
		if r := n.Router(l.Ifaces[1].Router); r != nil {
			lonB = r.Longitude
		}
	}
	gap := lonA - lonB
	if gap < 0 {
		gap = -gap
	}
	var tiers []int
	switch l.Kind {
	case LinkIXPLAN:
		tiers = bwLAN
	case LinkInternal:
		tiers = bwInternal
	default:
		tiers = bwInterdomain
	}
	draw := linkDraw(n.AnnotSeed, l.AddrOwner, l.Subnet)
	l.Annot = Annotation{
		Latency:       500*time.Microsecond + time.Duration(gap*0.35*float64(time.Millisecond)),
		BandwidthMbps: tiers[draw%uint64(len(tiers))],
		LonA:          lonA,
		LonB:          lonB,
	}
}

// annotate fills the annotation of every link that does not have one yet.
// Links loaded from a serialized network or already annotated by a previous
// Build keep their values (mutation must not perturb surviving links).
func (n *Network) annotate() {
	for _, l := range n.Links {
		if l.Annot == (Annotation{}) {
			n.annotateLink(l)
		}
	}
}

// remoteAttachment places a remote-peering IXP member: a metro at least 25
// degrees of longitude from the IXP (so the placement visibly violates the
// distance assumptions §5.4's hop metrics lean on) and the one-way delay of
// the member's long-haul layer-2 circuit into the fabric. Both are drawn
// from the member's per-AS hash stream, independent of generation order.
func remoteAttachment(seed int64, asn ASN, ixpLon float64) (lon float64, circuit time.Duration) {
	h := asSeed(seed, asn)
	far := make([]Region, 0, len(USRegions))
	for _, r := range USRegions {
		if geoDist(r.Longitude, ixpLon) >= 25 {
			far = append(far, r)
		}
	}
	if len(far) == 0 {
		far = USRegions
	}
	r := far[h%uint64(len(far))]
	return r.Longitude, 5*time.Millisecond + time.Duration((h>>8)%35)*time.Millisecond
}
