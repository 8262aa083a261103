package rir

import (
	"bytes"
	"strings"
	"testing"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

func TestParseLine(t *testing.T) {
	rec, ok, err := ParseLine("arin|US|ipv4|192.0.2.0|256|20160101|allocated|ORG-1")
	if err != nil || !ok {
		t.Fatalf("err=%v ok=%v", err, ok)
	}
	if rec.Start != netx.MustParseAddr("192.0.2.0") || rec.Count != 256 || rec.OrgID != "ORG-1" {
		t.Fatalf("rec = %+v", rec)
	}
	if rec.End() != netx.MustParseAddr("192.0.2.255") {
		t.Fatalf("End = %v", rec.End())
	}
}

func TestParseLineSkips(t *testing.T) {
	for _, line := range []string{
		"",
		"# comment",
		"arin|US|ipv6|2001:db8::|32|20160101|allocated|ORG",
		"arin|*|ipv4|*|1000|summary",
	} {
		_, ok, err := ParseLine(line)
		if err != nil || ok {
			t.Errorf("line %q: ok=%v err=%v, want skip", line, ok, err)
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	for _, line := range []string{
		"arin|US|ipv4",
		"arin|US|ipv4|notanip|256|20160101|allocated|ORG",
		"arin|US|ipv4|192.0.2.0|zero|20160101|allocated|ORG",
		"arin|US|ipv4|192.0.2.0|0|20160101|allocated|ORG",
	} {
		if _, _, err := ParseLine(line); err == nil {
			t.Errorf("line %q: expected error", line)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 1)
	db := FromNetwork(n)
	if db.Len() == 0 {
		t.Fatal("empty delegation DB")
	}
	var buf bytes.Buffer
	if _, err := db.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != db.Len() {
		t.Fatalf("round trip lost records: %d -> %d", db.Len(), db2.Len())
	}
	recs, recs2 := db.Records(), db2.Records()
	for i := range recs {
		if recs[i] != recs2[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, recs[i], recs2[i])
		}
	}
}

func TestOrgOfMostSpecific(t *testing.T) {
	db, err := Parse(strings.NewReader(strings.Join([]string{
		"arin|US|ipv4|10.0.0.0|65536|20160101|allocated|ORG-BIG",
		"arin|US|ipv4|10.0.2.0|256|20160101|allocated|ORG-SMALL",
	}, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if org, ok := db.OrgOf(netx.MustParseAddr("10.0.2.5")); !ok || org != "ORG-SMALL" {
		t.Fatalf("got %q %v, want ORG-SMALL", org, ok)
	}
	if org, ok := db.OrgOf(netx.MustParseAddr("10.0.3.5")); !ok || org != "ORG-BIG" {
		t.Fatalf("got %q %v, want ORG-BIG", org, ok)
	}
	if _, ok := db.OrgOf(netx.MustParseAddr("11.0.0.1")); ok {
		t.Fatal("addr outside any delegation should miss")
	}
}

func TestSameOrg(t *testing.T) {
	db, err := Parse(strings.NewReader(strings.Join([]string{
		"arin|US|ipv4|10.0.0.0|256|20160101|allocated|ORG-A",
		"arin|US|ipv4|10.0.1.0|256|20160101|allocated|ORG-A",
		"arin|US|ipv4|10.0.2.0|256|20160101|allocated|ORG-B",
	}, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	a1 := netx.MustParseAddr("10.0.0.9")
	a2 := netx.MustParseAddr("10.0.1.9")
	b := netx.MustParseAddr("10.0.2.9")
	orgA1, _ := db.OrgOf(a1)
	orgA2, _ := db.OrgOf(a2)
	orgB, _ := db.OrgOf(b)
	if orgA1 != "ORG-A" || orgA1 != orgA2 {
		t.Errorf("same-org addresses resolved to %q and %q", orgA1, orgA2)
	}
	if orgB != "ORG-B" {
		t.Errorf("different-org address resolved to %q", orgB)
	}
}

func TestNetworkDelegationsQueryable(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 4)
	db := FromNetwork(n)
	// The host's unannounced infra block must resolve to the host org.
	host := n.ASes[n.HostASN]
	if org, ok := db.OrgOf(host.Infra.First() + 5); !ok || org != host.Org {
		t.Fatalf("host infra org = %q %v, want %q", org, ok, host.Org)
	}
}

func TestOrgRecordsMatchesRecords(t *testing.T) {
	db, err := Parse(strings.NewReader(strings.Join([]string{
		"arin|US|ipv4|10.0.0.0|256|20160101|allocated|ORG-A",
		"arin|US|ipv4|10.0.2.0|256|20160101|allocated|ORG-B",
		"arin|US|ipv4|10.0.1.0|256|20160101|allocated|ORG-A",
	}, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"ORG-A": 2, "ORG-B": 1}
	for org, n := range want {
		recs := db.OrgRecords(org)
		if len(recs) != n {
			t.Fatalf("OrgRecords(%q) = %d records, want %d", org, len(recs), n)
		}
		for i, r := range recs {
			if r.OrgID != org {
				t.Fatalf("OrgRecords(%q)[%d] belongs to %q", org, i, r.OrgID)
			}
			if i > 0 && recs[i-1].Start > r.Start {
				t.Fatalf("OrgRecords(%q) not in Start order", org)
			}
		}
	}
	if got := db.OrgRecords("ORG-MISSING"); got != nil {
		t.Fatalf("OrgRecords of unknown org = %v, want nil", got)
	}
	// Grouped records are exactly a partition of Records().
	total := 0
	for org := range want {
		total += len(db.OrgRecords(org))
	}
	if total != db.Len() {
		t.Fatalf("org groups cover %d records, table has %d", total, db.Len())
	}
}
