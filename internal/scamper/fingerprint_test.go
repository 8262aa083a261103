package scamper

import (
	"testing"

	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// TestTraceFingerprintOrdersAsText: the integer keys TraceFingerprint
// sorts by order lines as their text does at every place the two can
// part: AS numbers that are prefixes of one another (AS2, AS12, AS123,
// AS1234 sort AS1234, AS123, AS12, AS2 as text), octets that are
// prefixes of one another in every position of the address, a
// one-digit octet against a two-digit one ('.' sorts below the digits,
// '|' above them), destinations repeated under one AS with different
// paths (the tie the lines break), stopped traces, and timeouts with no
// address. Each dataset is fingerprinted in its given order and
// reversed, and held to the string oracle.
func TestTraceFingerprintOrdersAsText(t *testing.T) {
	hop := func(ttl uint8, typ probe.HopType, a string) probe.Hop {
		h := probe.Hop{TTL: ttl, Type: typ}
		if a != "" {
			h.Addr = netx.MustParseAddr(a)
		}
		return h
	}
	path := [][]probe.Hop{
		nil,
		{hop(1, probe.HopTimeExceeded, "10.0.0.1")},
		{hop(1, probe.HopTimeExceeded, "10.0.0.1"), hop(2, probe.HopTimeout, "")},
		{hop(1, probe.HopTimeout, ""), hop(2, probe.HopTimeExceeded, "9.9.9.9"), hop(3, probe.HopEchoReply, "1.2.3.4")},
		{hop(1, probe.HopTimeExceeded, "10.0.0.1"), hop(12, probe.HopUnreachable, "100.0.0.1")},
		{hop(1, probe.HopTimeExceeded, "10.0.0.10")},
		{hop(255, probe.HopTimeExceeded, "255.255.255.255")},
	}
	var ds Dataset
	for _, as := range []topo.ASN{2, 12, 123, 1234, 20, 1, 10, 100, 4294967295, 0} {
		for _, dst := range []string{"1.2.3.4", "1.2.3.45", "1.2.3.5", "9.0.0.1", "10.0.0.1", "1.2.30.4",
			"1.20.3.4", "12.2.3.4", "0.0.0.0", "255.255.255.255", "100.0.0.1"} {
			for p, hops := range path {
				if (int(as)+p)%3 == 0 && p > 1 {
					continue // not every path under every pair: the ties stay uneven
				}
				for _, stopped := range []bool{false, true} {
					ds.Traces = append(ds.Traces, TraceRecord{
						TraceResult: probe.TraceResult{Dst: netx.MustParseAddr(dst), Hops: hops, Stopped: stopped},
						TargetAS:    as,
					})
				}
			}
		}
	}
	want := ds.traceFingerprintStrings()
	if got := ds.TraceFingerprint(); got != want {
		t.Fatalf("TraceFingerprint %016x, string oracle %016x", got, want)
	}
	for i, j := 0, len(ds.Traces)-1; i < j; i, j = i+1, j-1 {
		ds.Traces[i], ds.Traces[j] = ds.Traces[j], ds.Traces[i]
	}
	if got := ds.TraceFingerprint(); got != want {
		t.Fatalf("reversed: TraceFingerprint %016x, string oracle %016x", got, want)
	}
	// The keys alone, pairwise, against the text they stand for.
	for _, pair := range [][2]uint32{{2, 12}, {12, 123}, {1, 10}, {10, 100}, {9, 10}, {0, 4294967295}, {19, 2}} {
		a, b := pair[0], pair[1]
		at, bt := topo.ASN(a).String()+"|", topo.ASN(b).String()+"|"
		if (asTextKey(a) < asTextKey(b)) != (at < bt) {
			t.Errorf("asTextKey orders %q and %q unlike their text", at, bt)
		}
	}
	for _, pair := range [][2]string{{"1.2.3.4", "1.2.3.45"}, {"9.0.0.1", "10.0.0.1"}, {"1.2.3.4", "1.2.30.4"}, {"1.0.0.0", "10.0.0.0"}} {
		a, b := netx.MustParseAddr(pair[0]), netx.MustParseAddr(pair[1])
		if (dstTextKey(uint32(a)) < dstTextKey(uint32(b))) != (pair[0]+"|" < pair[1]+"|") {
			t.Errorf("dstTextKey orders %s and %s unlike their text", pair[0], pair[1])
		}
	}
}
