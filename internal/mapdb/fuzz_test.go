package mapdb

import (
	"bytes"
	"encoding/binary"
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// decodePrefixes turns fuzz bytes into a prefix set: 5-byte records of
// 4 address bytes plus a length byte (mod 33).
func decodePrefixes(data []byte) []netx.Prefix {
	var out []netx.Prefix
	for len(data) >= 5 && len(out) < 512 {
		a := netx.Addr(binary.BigEndian.Uint32(data))
		out = append(out, netx.MakePrefix(a, int(data[4]%33)))
		data = data[5:]
	}
	return out
}

// FuzzLookup cross-checks the compiled LPM table against a linear-scan
// oracle over arbitrary insert sets: for any probe address, the table must
// return the entry of the longest inserted prefix containing it, with
// last-insert-wins on duplicate prefixes.
func FuzzLookup(f *testing.F) {
	f.Add([]byte{10, 0, 0, 1, 32, 10, 0, 0, 0, 8}, uint32(0x0a000001))
	f.Add([]byte{0, 0, 0, 0, 0, 255, 255, 255, 255, 32}, uint32(0xffffffff))
	f.Add([]byte{192, 0, 2, 0, 24, 192, 0, 2, 0, 25, 192, 0, 2, 1, 32}, uint32(0xc0000201))
	f.Add([]byte{}, uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, probeRaw uint32) {
		prefixes := decodePrefixes(data)
		b := newLPMBuilder()
		for i, p := range prefixes {
			b.insert(p, int32(i))
		}
		tbl := b.table()

		oracle := func(a netx.Addr) int32 {
			best, bestLen := int32(-1), -1
			for i, p := range prefixes {
				// >= implements last-insert-wins for duplicate prefixes.
				if p.Contains(a) && p.Len >= bestLen {
					best, bestLen = int32(i), p.Len
				}
			}
			return best
		}

		probes := []netx.Addr{netx.Addr(probeRaw), 0, ^netx.Addr(0)}
		for _, p := range prefixes {
			probes = append(probes, p.Base, p.Last())
		}
		for _, a := range probes {
			if got, want := tbl.lookup(a), oracle(a); got != want {
				t.Fatalf("lookup(%v) = %d, oracle says %d (prefixes %v)", a, got, want, prefixes)
			}
		}
	})
}

// decodeResults turns fuzz bytes into per-VP inference results: 6-byte
// records, each one router of up to two addresses and optionally the link
// across it. Addresses, ASes and heuristics are drawn from deliberately
// small spaces so two independently decoded sets collide — the same hop
// pair relabeled, the same address re-owned or dropped — instead of being
// disjoint.
func decodeResults(data []byte) []*core.Result {
	heurs := []core.Heuristic{"", core.HeurHostNetwork, core.HeurRelationship, core.HeurSilent}
	results := []*core.Result{{VPName: "east"}, {VPName: "west"}}
	for n := 0; len(data) >= 6 && n < 256; n, data = n+1, data[6:] {
		res := results[data[0]&1]
		near := netx.AddrFromOctets(10, 0, 0, data[1])
		var far netx.Addr
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
	f.Add([]byte{}, []byte{}, uint8(0))
	// everything removed
	f.Add([]byte{2, 1, 2, 3, 9, 4}, []byte{}, uint8(0))
	// a silent link into a partial generation
	f.Add([]byte{}, []byte{3, 1, 0, 3, 15, 4}, uint8(2))
	// relabel out of a partial generation
	f.Add([]byte{2, 1, 2, 3, 9, 4}, []byte{2, 1, 2, 3, 5, 4}, uint8(1))
	// owner change + owner removal
	f.Add([]byte{2, 1, 2, 3, 9, 4, 0, 7, 0, 2, 1, 3}, []byte{2, 1, 2, 4, 9, 4}, uint8(0))
	// first-write-wins order flips
	f.Add([]byte{0, 9, 9, 1, 1, 1, 1, 9, 9, 2, 2, 2}, []byte{1, 9, 9, 2, 2, 2, 0, 9, 9, 1, 1, 1}, uint8(3))

	f.Fuzz(func(t *testing.T, rawA, rawB []byte, partial uint8) {
		a := Compile(64500, decodeResults(rawA))
		b := Compile(64500, decodeResults(rawB))
		a.gen, b.gen = 1, 2
		if partial&1 != 0 {
			a.MarkDegraded([]string{"west"})
		}
		if partial&2 != 0 {
			b.MarkDegraded([]string{"west"})
		}
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
