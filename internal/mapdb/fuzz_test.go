package mapdb

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"slices"
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// ownerLinear, linkLinear and neighborsLinear are the lookups as plain scans
// of a snapshot's data — the oracles the indexed forms are held to.
func (s *Snapshot) ownerLinear(a netx.Addr) (OwnerInfo, bool) {
	for i, oa := range s.ownerAddrs {
		if oa == a {
			return s.owners[i], true
		}
	}
	return OwnerInfo{}, false
}

// linkLinear's zero near matches nothing: an unobserved near side is no
// hop pair (see Snapshot.Link).
func (s *Snapshot) linkLinear(near, far netx.Addr) (Link, bool) {
	for _, l := range s.links {
		if l.Near == near && l.Far == far && !near.IsZero() {
			return l, true
		}
	}
	return Link{}, false
}

func (s *Snapshot) neighborsLinear(as topo.ASN) []Link {
	out := []Link{}
	for _, l := range s.links {
		if l.FarAS == as {
			out = append(out, l)
		}
	}
	return out
}

// requireLookupsMatchLinear drives Owner, Link and Neighbors over every key
// the snapshot holds and three it does not (Owner over probes too), against
// the linear oracles.
func requireLookupsMatchLinear(t *testing.T, s *Snapshot, probes ...netx.Addr) {
	t.Helper()
	foreign := []netx.Addr{0, netx.MustParseAddr("203.0.113.9"), ^netx.Addr(0)}
	for _, a := range slices.Concat(foreign, s.ownerAddrs, probes) {
		got, ok := s.Owner(a)
		if want, wantOK := s.ownerLinear(a); ok != wantOK || got != want {
			t.Fatalf("Owner(%v) = %+v,%v; linear scan says %+v,%v", a, got, ok, want, wantOK)
		}
	}
	pairs := [][2]netx.Addr{{0, 0}, {foreign[1], foreign[2]}, {foreign[2], 0}}
	ases := []topo.ASN{0, 64499, ^topo.ASN(0)}
	for _, l := range s.links {
		pairs = append(pairs, [2]netx.Addr{l.Near, l.Far})
		ases = append(ases, l.FarAS)
	}
	for _, p := range pairs {
		got, ok := s.Link(p[0], p[1])
		if want, wantOK := s.linkLinear(p[0], p[1]); ok != wantOK || got != want {
			t.Fatalf("Link(%v,%v) = %+v,%v; linear scan says %+v,%v", p[0], p[1], got, ok, want, wantOK)
		}
	}
	for _, as := range ases {
		if got, want := s.Neighbors(as), s.neighborsLinear(as); !reflect.DeepEqual(got, want) {
			t.Fatalf("Neighbors(%v) = %+v; linear scan says %+v", as, got, want)
		}
	}
}

// FuzzLookup holds Snapshot.Owner — a binary search of the sorted owner
// addresses — to the linear-scan oracle on arbitrary compiled owner tables:
// every indexed address, both of its numeric neighbors (an exact-match
// table must miss them unless they are indexed too) and the extremes; Link
// and Neighbors ride along over the same snapshot's keys.
func FuzzLookup(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{2, 1, 2, 3, 9, 4}, uint32(0x0a000001))
	f.Add([]byte{2, 1, 2, 3, 9, 4, 0, 7, 0, 2, 1, 3}, uint32(0x0a000102))
	f.Add([]byte{0, 9, 9, 1, 1, 1, 1, 9, 9, 2, 2, 2, 3, 255, 255, 7, 0, 0}, uint32(0xffffffff))
	// two unobserved-near silent links to different ASes: no hop pair
	f.Add([]byte{2, 0, 0, 3, 15, 4, 3, 0, 0, 5, 9, 4}, uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, probeRaw uint32) {
		s := Compile(64500, decodeResults(data))
		probes := []netx.Addr{netx.Addr(probeRaw)}
		for _, a := range s.ownerAddrs {
			probes = append(probes, a-1, a+1)
		}
		requireLookupsMatchLinear(t, s, probes...)
	})
}

// reseal recomputes both CRC levels of a segment image in place — every
// section whose range lies inside the image, then the table — so edited
// payload bytes reach the decoders instead of dying at a checksum. An
// image whose header does not parse is left alone.
func reseal(img []byte) {
	if len(img) < segHeaderLen+4 {
		return
	}
	nsect := int(binary.LittleEndian.Uint32(img[24:]))
	headLen := segHeaderLen + segTableEntLen*nsect + 4
	if nsect > 4096 || len(img) < headLen {
		return
	}
	for i := 0; i < nsect; i++ {
		ent := img[segHeaderLen+segTableEntLen*i:]
		off, ln := binary.LittleEndian.Uint64(ent[4:]), binary.LittleEndian.Uint64(ent[12:])
		if off <= uint64(len(img)) && ln <= uint64(len(img))-off {
			binary.LittleEndian.PutUint32(ent[20:], crc32.Checksum(img[off:off+ln], segCRC))
		}
	}
	binary.LittleEndian.PutUint32(img[headLen-4:], crc32.Checksum(img[:headLen-4], segCRC))
}

// tableEntry returns section id's table entry inside img, or nil when the
// image has no such section.
func tableEntry(img []byte, id uint32) []byte {
	nsect := int(binary.LittleEndian.Uint32(img[24:]))
	for i := 0; i < nsect; i++ {
		ent := img[segHeaderLen+segTableEntLen*i:]
		if binary.LittleEndian.Uint32(ent) == id {
			return ent[:segTableEntLen]
		}
	}
	return nil
}

// sectionOf returns section id's payload inside img, for editing in place.
func sectionOf(t testing.TB, img []byte, id uint32) []byte {
	t.Helper()
	ent := tableEntry(img, id)
	if ent == nil {
		t.Fatalf("image has no section %d", id)
	}
	off, ln := binary.LittleEndian.Uint64(ent[4:]), binary.LittleEndian.Uint64(ent[12:])
	return img[off : off+ln]
}

// resealed returns a copy of img with edit applied to section id and both
// CRC levels recomputed.
func resealed(t testing.TB, img []byte, id uint32, edit func(p []byte)) []byte {
	t.Helper()
	out := bytes.Clone(img)
	edit(sectionOf(t, out, id))
	reseal(out)
	return out
}

// reverseRecords reverses the order of p's size-byte records in place.
func reverseRecords(p []byte, size int) {
	tmp := make([]byte, size)
	for i, j := 0, len(p)-size; i < j; i, j = i+size, j-size {
		copy(tmp, p[i:i+size])
		copy(p[i:i+size], p[j:j+size])
		copy(p[j:j+size], tmp)
	}
}

// FuzzReadSegment is the serving side's trust boundary: a follower pulls
// /v1/segment from a URL, so any bytes can arrive with valid checksums. The
// input's CRCs are resealed when its header parses, so mutation reaches the
// section decoders; ReadSegment must then either refuse the image or
// return a snapshot whose lookups never panic, agree with linear scans of
// the data it decoded, and whose own image is canonical (reopens to the
// identical bytes).
func FuzzReadSegment(f *testing.F) {
	fixture, err := os.ReadFile(segmentFixture)
	if err != nil {
		f.Fatal(err)
	}
	fresh := Compile(64500, decodeResults([]byte{2, 1, 2, 3, 9, 4, 1, 7, 0, 2, 1, 3, 3, 9, 0, 5, 15, 4}))
	fresh.gen = 3
	img := image(f, fresh)

	f.Add(fixture)
	f.Add(img)
	// a retired index section hostile to the parent's reader
	f.Add(resealed(f, fixture, 12, func(p []byte) { binary.LittleEndian.PutUint32(p, ^uint32(4)) }))
	// owners in descending order: accepted, canonicalised
	f.Add(resealed(f, img, secOwnerAddrs, func(p []byte) { reverseRecords(p, 4) }))
	// one address recorded twice: refused
	f.Add(resealed(f, img, secOwnerAddrs, func(p []byte) { copy(p[4:8], p[:4]) }))
	// a heuristic index beyond the vocabulary: refused
	f.Add(resealed(f, img, secLinks, func(p []byte) { p[12] = 0xff }))
	// a string list claiming more entries than it carries: refused
	f.Add(resealed(f, img, secVPs, func(p []byte) { p[3] = 0x7f }))

	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data)
		reseal(data)
		s, err := ReadSegment(data)
		if err != nil {
			return
		}
		requireLookupsMatchLinear(t, s)
		out := image(t, s)
		re, err := ReadSegment(out)
		if err != nil {
			t.Fatalf("the image of an accepted segment does not reopen: %v", err)
		}
		if !bytes.Equal(image(t, re), out) {
			t.Fatal("the image of an accepted segment is not canonical: it reopens to different bytes")
		}
	})
}

// decodeResults turns fuzz bytes into per-VP inference results: 6-byte
// records, each one router of up to two addresses and optionally the link
// across it (a zero near octet is a near side never observed). Addresses,
// ASes and heuristics are drawn from deliberately small spaces so two
// independently decoded sets collide — the same hop pair relabeled, the
// same address re-owned or dropped — instead of being disjoint.
func decodeResults(data []byte) []*core.Result {
	heurs := []core.Heuristic{"", core.HeurHostNetwork, core.HeurRelationship, core.HeurSilent}
	results := []*core.Result{{VPName: "east"}, {VPName: "west"}}
	for n := 0; len(data) >= 6 && n < 256; n, data = n+1, data[6:] {
		res := results[data[0]&1]
		var near, far netx.Addr // near zero: a near side never observed
		if data[1] != 0 {
			near = netx.AddrFromOctets(10, 0, 0, data[1])
		}
		rn := &core.RouterNode{
			ID: n, Addrs: []netx.Addr{near},
			Owner:     topo.ASN(data[3] % 8), // 0: unattributed, left out of the owner table
			Heuristic: heurs[data[4]%4],
			IsHost:    data[5]&1 != 0,
			HopDist:   int(data[5] >> 1),
		}
		if data[2] != 0 {
			far = netx.AddrFromOctets(10, 0, 1, data[2])
			rn.Addrs = append(rn.Addrs, far)
		}
		res.Routers = append(res.Routers, rn)
		if data[0]&2 != 0 {
			res.Links = append(res.Links, &core.Link{
				NearAddr: near, FarAddr: far,
				FarAS: topo.ASN(data[3]%8 + 1), Heuristic: heurs[(data[4]>>2)%4],
			})
		}
	}
	return results
}

// FuzzApplyDiff holds the replication delta to the compile-from-scratch
// oracle: for any two generations, a replica that opened the first from
// its segment and applied the wire form of the diff between them must hold
// the second byte for byte — the image equality a replica digest will be
// defined over.
func FuzzApplyDiff(f *testing.F) {
	f.Add([]byte{}, []byte{})
	// everything removed
	f.Add([]byte{2, 1, 2, 3, 9, 4}, []byte{})
	// a silent link appears
	f.Add([]byte{}, []byte{3, 1, 0, 3, 15, 4})
	// relabel
	f.Add([]byte{2, 1, 2, 3, 9, 4}, []byte{2, 1, 2, 3, 5, 4})
	// owner change + owner removal
	f.Add([]byte{2, 1, 2, 3, 9, 4, 0, 7, 0, 2, 1, 3}, []byte{2, 1, 2, 4, 9, 4})
	// first-write-wins order flips
	f.Add([]byte{0, 9, 9, 1, 1, 1, 1, 9, 9, 2, 2, 2}, []byte{1, 9, 9, 2, 2, 2, 0, 9, 9, 1, 1, 1})

	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a := Compile(64500, decodeResults(rawA))
		b := Compile(64500, decodeResults(rawB))
		a.gen, b.gen = 1, 2
		replica, err := ReadSegment(image(t, a))
		if err != nil {
			t.Fatal(err)
		}
		got, err := replica.Apply(overWire(t, diffSnapshots(a, b)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(image(t, got), image(t, b)) {
			t.Fatalf("replica diverged from the compiled target:\n a %+v %+v\n b %+v %+v\n got %+v %+v",
				a.links, a.ownerAddrs, b.links, b.ownerAddrs, got.links, got.ownerAddrs)
		}
	})
}
