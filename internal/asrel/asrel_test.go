package asrel

import (
	"testing"

	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

func buildAndInfer(t *testing.T, prof topo.Profile, seed int64) (*topo.Network, *Inference) {
	t.Helper()
	n := topo.Generate(prof, seed)
	tb := bgp.NewTable(n)
	view := bgp.Collect(tb, bgp.DefaultVantages(n))
	return n, Infer(view)
}

// accuracy compares inferred labels with ground truth over all inferred
// links whose true relationship is known.
func accuracy(n *topo.Network, inf *Inference) (correct, total int) {
	for _, asn := range n.ASNs() {
		a := n.ASes[asn]
		for _, nb := range inf.Neighbors(asn) {
			if nb < asn {
				continue // count each link once
			}
			truth := a.RelTo(nb)
			if truth == topo.RelNone || truth == topo.RelSibling {
				continue
			}
			total++
			if inf.Rel(asn, nb) == truth {
				correct++
			}
		}
	}
	return correct, total
}

func TestInferenceAccuracyTiny(t *testing.T) {
	n, inf := buildAndInfer(t, topo.TinyProfile(), 3)
	correct, total := accuracy(n, inf)
	if total == 0 {
		t.Fatal("no links inferred")
	}
	if frac := float64(correct) / float64(total); frac < 0.90 {
		t.Errorf("accuracy = %.3f (%d/%d), want >= 0.90", frac, correct, total)
	}
}

func TestInferenceAccuracyRE(t *testing.T) {
	if testing.Short() {
		t.Skip("larger profile in -short mode")
	}
	n, inf := buildAndInfer(t, topo.REProfile(), 1)
	correct, total := accuracy(n, inf)
	if frac := float64(correct) / float64(total); frac < 0.90 {
		t.Errorf("accuracy = %.3f (%d/%d), want >= 0.90", frac, correct, total)
	}
}

func TestHostNotInClique(t *testing.T) {
	// An access network with many customers must not be inferred as a
	// Tier-1 clique member, or its provider links would be mislabeled.
	n, inf := buildAndInfer(t, topo.TinyProfile(), 5)
	if n.ASes[n.HostASN].Tier != topo.TierTier1 && inf.InClique(n.HostASN) {
		t.Error("non-tier1 host wrongly inferred in clique")
	}
}

func TestHostProviderAndCustomerLabels(t *testing.T) {
	n, inf := buildAndInfer(t, topo.TinyProfile(), 7)
	host := n.ASes[n.HostASN]
	var provOK, provN, custOK, custN int
	for _, nb := range host.Neighbors() {
		got := inf.Rel(n.HostASN, nb.ASN)
		switch nb.Rel {
		case topo.RelProvider:
			provN++
			if got == topo.RelProvider {
				provOK++
			}
		case topo.RelCustomer:
			custN++
			if got == topo.RelCustomer || got == topo.RelNone {
				// RelNone acceptable only for hidden neighbors.
				if got == topo.RelCustomer {
					custOK++
				}
			}
		}
	}
	if provN == 0 || provOK != provN {
		t.Errorf("provider labels: %d/%d correct", provOK, provN)
	}
	if custN == 0 || float64(custOK)/float64(custN) < 0.9 {
		t.Errorf("customer labels: %d/%d correct", custOK, custN)
	}
}

func TestHiddenPeersUnlabeled(t *testing.T) {
	n, inf := buildAndInfer(t, topo.TinyProfile(), 9)
	for asn := range n.HiddenNeighbors {
		if rel := inf.Rel(n.HostASN, asn); rel != topo.RelNone {
			t.Errorf("hidden peer %v has inferred relationship %v to host", asn, rel)
		}
	}
}

// handView builds a View-equivalent via a tiny custom network, exercising
// the apex/voting logic directly.
func TestPeerEdgeNotMislabeled(t *testing.T) {
	// host -peer- big, big has customer c; host's own customer hc.
	// The host→big edge must not become c2p.
	n := topo.NewNetwork()
	al := topo.NewAllocator()
	for _, asn := range []topo.ASN{10, 20, 30, 40, 50, 60, 70, 71, 72, 80, 81, 82} {
		a := n.AddAS(asn, topo.TierTransit, "org")
		a.Prefixes = []netx.Prefix{al.Next(16)}
	}
	// 10, 20 = tier1 clique (each with their own transit customers
	// 70-72 / 80-82 so their transit degrees anchor the clique);
	// 30 = host; 40 = big transit peer of the host.
	n.HostASN = 30
	n.ASes[10].Tier = topo.TierTier1
	n.ASes[20].Tier = topo.TierTier1
	n.SetRel(10, 20, topo.RelPeer)
	n.SetRel(30, 10, topo.RelCustomer)
	n.SetRel(40, 10, topo.RelPeer) // 40 is a transit-free big network
	n.SetRel(40, 20, topo.RelPeer)
	n.SetRel(30, 40, topo.RelPeer) // the peering under test
	n.SetRel(50, 40, topo.RelCustomer)
	n.SetRel(60, 30, topo.RelCustomer)
	for _, c := range []topo.ASN{70, 71, 72} {
		n.SetRel(c, 10, topo.RelCustomer)
	}
	for _, c := range []topo.ASN{80, 81, 82} {
		n.SetRel(c, 20, topo.RelCustomer)
	}
	n.Build()
	tb := bgp.NewTable(n)
	view := bgp.Collect(tb, []topo.ASN{10, 20, 30, 40, 60, 70, 80})
	inf := Infer(view)
	if got := inf.Rel(30, 40); got != topo.RelPeer {
		t.Errorf("host-big relationship = %v, want peer", got)
	}
	if got := inf.Rel(30, 10); got != topo.RelProvider {
		t.Errorf("host-t1 relationship = %v, want provider", got)
	}
	if got := inf.Rel(40, 50); got != topo.RelCustomer {
		t.Errorf("big-cust relationship = %v, want customer", got)
	}
	if got := inf.Rel(30, 60); got != topo.RelCustomer {
		t.Errorf("host-cust relationship = %v, want customer", got)
	}
}

func TestProvidersOfCustomersOf(t *testing.T) {
	n, inf := buildAndInfer(t, topo.TinyProfile(), 11)
	host := n.HostASN
	provs := inf.ProvidersOf(host)
	custs := inf.CustomersOf(host)
	for _, p := range provs {
		if inf.Rel(host, p) != topo.RelProvider {
			t.Errorf("ProvidersOf inconsistent for %v", p)
		}
	}
	for _, c := range custs {
		if inf.Rel(host, c) != topo.RelCustomer {
			t.Errorf("CustomersOf inconsistent for %v", c)
		}
	}
	if len(provs) == 0 || len(custs) == 0 {
		t.Errorf("host has %d providers, %d customers inferred", len(provs), len(custs))
	}
}

func TestRelSymmetry(t *testing.T) {
	n, inf := buildAndInfer(t, topo.TinyProfile(), 13)
	for _, a := range n.ASNs() {
		for _, b := range inf.Neighbors(a) {
			if inf.Rel(a, b) != inf.Rel(b, a).Invert() {
				t.Fatalf("asymmetric inference for %v-%v", a, b)
			}
		}
	}
}
