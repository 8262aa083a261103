package topo

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := Generate(TinyProfile(), 1)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if got.HostASN != orig.HostASN {
		t.Fatalf("host: %v vs %v", got.HostASN, orig.HostASN)
	}
	if gs, os := got.Stats(), orig.Stats(); gs != os {
		t.Fatalf("stats: %+v vs %+v", gs, os)
	}
	// ASes with relationships and prefixes.
	for _, asn := range orig.ASNs() {
		oa, ga := orig.ASes[asn], got.ASes[asn]
		if ga == nil {
			t.Fatalf("missing %v", asn)
		}
		if ga.Org != oa.Org || ga.Tier != oa.Tier || ga.Policy != oa.Policy ||
			ga.AnnounceInfra != oa.AnnounceInfra || ga.Infra != oa.Infra {
			t.Fatalf("%v fields differ", asn)
		}
		if len(ga.Prefixes) != len(oa.Prefixes) {
			t.Fatalf("%v prefixes differ", asn)
		}
		on, gn := oa.Neighbors(), ga.Neighbors()
		if len(on) != len(gn) {
			t.Fatalf("%v neighbor counts differ: %d vs %d", asn, len(gn), len(on))
		}
		for i := range on {
			if on[i] != gn[i] {
				t.Fatalf("%v neighbor %d: %+v vs %+v", asn, i, gn[i], on[i])
			}
		}
	}
	// Routers with behaviors and interfaces.
	for _, or := range orig.Routers {
		gr := got.Router(or.ID)
		if gr == nil || gr.Owner != or.Owner || gr.Name != or.Name ||
			gr.Longitude != or.Longitude || gr.Behavior != or.Behavior {
			t.Fatalf("router %d differs", or.ID)
		}
		if len(gr.Ifaces) != len(or.Ifaces) {
			t.Fatalf("router %d iface count", or.ID)
		}
		for i := range or.Ifaces {
			if gr.Ifaces[i].Addr != or.Ifaces[i].Addr {
				t.Fatalf("router %d iface %d addr", or.ID, i)
			}
		}
	}
	// Anchors, pins, sessions, hidden, delegations.
	oa, ga := orig.Anchors(), got.Anchors()
	if len(oa) != len(ga) {
		t.Fatalf("anchors: %d vs %d", len(ga), len(oa))
	}
	for i := range oa {
		if oa[i] != ga[i] {
			t.Fatalf("anchor %d: %+v vs %+v", i, ga[i], oa[i])
		}
	}
	op, gp := orig.PinnedPrefixes(), got.PinnedPrefixes()
	if len(op) != len(gp) {
		t.Fatalf("pins: %d vs %d", len(gp), len(op))
	}
	if len(orig.Sessions()) != len(got.Sessions()) {
		t.Fatal("sessions differ")
	}
	if len(orig.HiddenNeighbors) != len(got.HiddenNeighbors) {
		t.Fatal("hidden neighbors differ")
	}
	if len(orig.Delegations) != len(got.Delegations) {
		t.Fatal("delegations differ")
	}
	if len(orig.MultiOrigin) != len(got.MultiOrigin) {
		t.Fatal("multi-origin differs")
	}
}

// TestLoadDropsRetiredBehaviorKey: a world saved while Behavior still had a
// VirtualRouter flag (encoded just before MercatorCanonical) still loads;
// the retired key is ignored, so the loaded world saves to today's bytes.
func TestLoadDropsRetiredBehaviorKey(t *testing.T) {
	var cur bytes.Buffer
	if err := Generate(TinyProfile(), 1).Save(&cur); err != nil {
		t.Fatal(err)
	}
	saved := strings.ReplaceAll(cur.String(), `"MercatorCanonical":`, `"VirtualRouter":false,"MercatorCanonical":`)
	if saved == cur.String() {
		t.Fatal("no router behavior to write the retired key into")
	}
	got, err := Load(strings.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := got.Save(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != cur.String() {
		t.Fatal("a world saved with the retired key loads to a different world")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := Load(strings.NewReader(
		`{"version":1,"links":[{"kind":0,"subnet":"10.0.0.0/31","ifaces":[{"router":5,"addr":"10.0.0.0"}]}],"rels":[]}`)); err == nil {
		t.Error("dangling router reference accepted")
	}
}

func TestSecondRoundTripIdentical(t *testing.T) {
	orig := Generate(TinyProfile(), 2)
	var a, b bytes.Buffer
	if err := orig.Save(&a); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("save/load/save not a fixed point")
	}
}

// TestSiblingsOrglessASIsItsOwnOrg: an AS with no organization name is an
// organization of its own, as the probe engine's sameOrg has it, not a
// sibling of every other org-less AS. A tiny world with the host's and an
// unrelated stub's organization blanked goes through Save and Load, and
// Siblings, SameOrg and OrgOf, answered from the index Build fills, must
// agree with a scan of every pair of ASes by organization name.
func TestSiblingsOrglessASIsItsOwnOrg(t *testing.T) {
	orig := Generate(TinyProfile(), 1)
	host := orig.ASes[orig.HostASN]
	var stub *AS
	for _, asn := range orig.ASNs() {
		if a := orig.ASes[asn]; a.Tier == TierStub && a.Org != host.Org {
			stub = a
			break
		}
	}
	if stub == nil {
		t.Fatal("the tiny world has no stub outside the host's organization")
	}
	host.Org, stub.Org = "", ""
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, asn := range []ASN{host.ASN, stub.ASN} {
		if got := n.Siblings(asn); !slices.Equal(got, []ASN{asn}) {
			t.Errorf("Siblings(%v) = %v, want the AS alone", asn, got)
		}
	}
	for _, asn := range n.ASNs() {
		var want []ASN
		for _, other := range n.ASNs() {
			same := other == asn || n.ASes[asn].Org != "" && n.ASes[other].Org == n.ASes[asn].Org
			if same {
				want = append(want, other)
			}
			if got := n.SameOrg(asn, other); got != same {
				t.Fatalf("SameOrg(%v, %v) = %t, the pairwise scan gives %t", asn, other, got, same)
			}
		}
		if got := n.Siblings(asn); !slices.Equal(got, want) {
			t.Fatalf("Siblings(%v) = %v, the pairwise scan gives %v", asn, got, want)
		}
		if got := n.OrgOf(asn); got != want[0] {
			t.Fatalf("OrgOf(%v) = %v, the least ASN of its organization is %v", asn, got, want[0])
		}
	}
}
