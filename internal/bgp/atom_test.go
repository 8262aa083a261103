package bgp

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// TestAtomRIBMatchesPerPrefixOracle is the safety net for RIB sharing and
// for derived stub routes: for every prefix, every AS's route in the RIB
// its atom shares — stored for the transit core, derived for a stub —
// equals a fresh per-prefix propagation. It runs on every built-in
// profile, on random hierarchies, and on a hand-built world pinning the
// two ways a stub's route hangs on a blocked provider.
func TestAtomRIBMatchesPerPrefixOracle(t *testing.T) {
	for _, prof := range OracleProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			tb := NewTable(topo.Generate(prof, 1))
			if tb.Atoms() > len(tb.Prefixes()) || tb.Atoms() == 0 {
				t.Fatalf("%d atoms for %d prefixes", tb.Atoms(), len(tb.Prefixes()))
			}
			sameRoutes(t, tb)
			t.Logf("%d prefixes in %d atoms; %d of %d ASes in the core", len(tb.Prefixes()), tb.Atoms(), len(tb.core), len(tb.asns))
		})
	}
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("random-%d", seed), func(t *testing.T) {
			sameRoutes(t, NewTable(randomHierarchy(seed)))
		})
	}
	t.Run("blocked-provider", func(t *testing.T) {
		n, px := blockedProviderNet()
		tb := NewTable(n)
		sameRoutes(t, tb)
		r := tb.Routes(px)
		if !r.HostSuppressed {
			t.Fatal("the host's route via its hidden peer is not blocked")
		}
		for _, stub := range []topo.ASN{40, 50} {
			if tb.slot[tb.IndexOf(stub)] >= 0 {
				t.Fatalf("AS%d is in the core, want a stub", stub)
			}
		}
		if c, l, next := r.At(tb.IndexOf(40)); c != ClassNone || l != noRoute || next != -1 {
			t.Errorf("AS40 behind only the blocked host: %v/%d/%d, want routeless", c, l, next)
		}
		if c, l, next := r.At(tb.IndexOf(50)); c != ClassProvider || l != 2 || next != tb.IndexOf(20) {
			t.Errorf("AS50: %v/%d via %d, want provider/2 via the blocked host AS20 (index %d)", c, l, next, tb.IndexOf(20))
		}
	})
}

// blockedProviderNet builds a world whose host AS20 peers with its hidden
// neighbor AS30, so the host's route to AS30's prefix px is blocked:
//
//	     T10
//	    /   \
//	host20 -h- X30 --- Q25 (X30 is a customer of T10 and Q25)
//	 |   \           /
//	S40    S50 ------+
//
// Stub AS40's only provider is the host, so it has no route to px. Stub
// AS50 hears px from Q25 at length two, and the host holds it at the same
// length: the canonical next hop is the lower ASN, the blocked host.
func blockedProviderNet() (*topo.Network, netx.Prefix) {
	n := topo.NewNetwork()
	al := topo.NewAllocator()
	for _, asn := range []topo.ASN{10, 20, 25, 30, 40, 50} {
		a := n.AddAS(asn, topo.TierTransit, "org")
		a.Prefixes = []netx.Prefix{al.Next(16)}
	}
	n.HostASN = 20
	n.SetRel(20, 10, topo.RelCustomer)
	n.SetRel(30, 10, topo.RelCustomer)
	n.SetRel(30, 25, topo.RelCustomer)
	n.SetRel(30, 20, topo.RelPeer)
	n.SetRel(40, 20, topo.RelCustomer)
	n.SetRel(50, 20, topo.RelCustomer)
	n.SetRel(50, 25, topo.RelCustomer)
	n.HiddenNeighbors = map[topo.ASN]bool{30: true}
	n.Build()
	return n, n.ASes[30].Prefixes[0]
}

// sameRoutes fails the test unless, for every prefix, the RIB Routes
// serves is its atom's and equals a fresh per-prefix propagation at every
// AS, read through At.
func sameRoutes(t *testing.T, tb *Table) {
	t.Helper()
	or := newOracleTable(tb)
	for _, p := range tb.Prefixes() {
		got, want := tb.Routes(p), or.compute(p)
		if got.Atom != tb.atomOf[p] {
			t.Fatalf("%v: RIB of atom %d served for atom %d", p, got.Atom, tb.atomOf[p])
		}
		for i, asn := range tb.asns {
			c, l, next := got.At(int32(i))
			if c != want.Class[i] || l != want.Len[i] || next != want.Next[i] {
				kind := "core"
				if tb.slot[i] < 0 {
					kind = "stub"
				}
				t.Fatalf("%v at %s AS%d: At gives %v/%d/%d, per-prefix compute %v/%d/%d",
					p, kind, asn, c, l, next, want.Class[i], want.Len[i], want.Next[i])
			}
		}
		switch {
		case !slices.Equal(got.HostCandidates, want.HostCandidates):
			t.Fatalf("%v: HostCandidates %v, per-prefix compute gives %v", p, got.HostCandidates, want.HostCandidates)
		case got.HostSuppressed != want.HostSuppressed:
			t.Fatalf("%v: HostSuppressed %t, per-prefix compute gives %t", p, got.HostSuppressed, want.HostSuppressed)
		}
	}
}

// FuzzAtomRIB generates a world from a (built-in profile index, seed)
// pair and holds every atom's routes at every AS to the per-prefix oracle.
//
//	go test ./internal/bgp -run=NONE -fuzz=FuzzAtomRIB -fuzztime=60s
func FuzzAtomRIB(f *testing.F) {
	profiles := topo.BuiltinProfiles()
	for i := range profiles {
		f.Add(uint8(i), int64(2)) // seed 1 is TestAtomRIBMatchesPerPrefixOracle's
	}
	f.Fuzz(func(t *testing.T, prof uint8, seed int64) {
		sameRoutes(t, NewTable(topo.Generate(profiles[int(prof)%len(profiles)], seed)))
	})
}

// TestPinnedPrefixesNeverShareAnAtomAcrossLinkSets: two prefixes of one
// origin pinned to different links are different announcements — each is
// a customer route only at the provider its link reaches, and above it —
// while a third pinned like the first shares its atom. The origin is a
// stub, and AS30 also originates a prefix pinned to no link, which its
// stub customer must not hear.
func TestPinnedPrefixesNeverShareAnAtomAcrossLinkSets(t *testing.T) {
	n := topo.NewNetwork()
	al := topo.NewAllocator()
	o := n.AddAS(10, topo.TierStub, "org-o")
	pa := n.AddAS(20, topo.TierTransit, "org-a")
	pb := n.AddAS(30, topo.TierTransit, "org-b")
	up := n.AddAS(5, topo.TierTransit, "org-up")
	n.HostASN = 20
	for _, as := range []*topo.AS{o, pa, pb, up} {
		as.Infra = al.Next(16)
		as.Prefixes = []netx.Prefix{as.Infra}
	}
	n.SetRel(10, 20, topo.RelCustomer)
	n.SetRel(10, 30, topo.RelCustomer)
	n.SetRel(30, 5, topo.RelCustomer)
	ro := n.AddRouter(10, "ro", 0)
	ra := n.AddRouter(20, "ra", 0)
	rb := n.AddRouter(30, "rb", 0)
	la := n.ConnectPtP(ro, ra, al.Sub(pa.Infra, 31), topo.LinkInterdomain, 20)
	lb := n.ConnectPtP(ro, rb, al.Sub(pb.Infra, 31), topo.LinkInterdomain, 30)
	viaA, viaB, viaA2 := al.Next(24), al.Next(24), al.Next(24)
	o.Prefixes = append(o.Prefixes, viaA, viaB, viaA2)
	n.PinPrefix(viaA, []*topo.Link{la})
	n.PinPrefix(viaB, []*topo.Link{lb})
	n.PinPrefix(viaA2, []*topo.Link{la})
	nowhere := al.Next(24)
	pb.Prefixes = append(pb.Prefixes, nowhere)
	n.PinPrefix(nowhere, nil)
	n.Build()

	tb := NewTable(n)
	sameRoutes(t, tb)
	if tb.Routes(viaA) == tb.Routes(viaB) {
		t.Fatal("prefixes pinned to different links share a RIB")
	}
	if tb.Routes(viaA) != tb.Routes(viaA2) {
		t.Error("prefixes of one origin pinned to the same link do not share a RIB")
	}
	if tb.Routes(viaA) == tb.Routes(o.Infra) {
		t.Error("a pinned prefix shares a RIB with its origin's unpinned prefix")
	}
	for _, c := range []struct {
		p                     netx.Prefix
		at5, at10, at20, at30 Class
	}{
		{viaA, ClassNone, ClassOrigin, ClassCustomer, ClassNone},
		{viaB, ClassCustomer, ClassOrigin, ClassNone, ClassCustomer},
		{viaA2, ClassNone, ClassOrigin, ClassCustomer, ClassNone},
		{o.Infra, ClassCustomer, ClassOrigin, ClassCustomer, ClassCustomer},
		{nowhere, ClassNone, ClassNone, ClassNone, ClassOrigin},
	} {
		for asn, want := range map[topo.ASN]Class{5: c.at5, 10: c.at10, 20: c.at20, 30: c.at30} {
			if got := tb.ClassAt(asn, c.p); got != want {
				t.Errorf("%v at AS%d: class %v, want %v", c.p, asn, got, want)
			}
		}
	}
}

// TestRoutesConcurrentMissesShareOneRIB: goroutines that miss on one atom
// together all leave Routes holding the same RIB — the first one stored —
// so RIB identity can stand for atom identity.
func TestRoutesConcurrentMissesShareOneRIB(t *testing.T) {
	tb := NewTable(topo.Generate(topo.REProfile(), 1))
	prefixes := tb.Prefixes()
	const workers = 4
	got := make([][]*PrefixRIB, workers)
	var start, done sync.WaitGroup
	start.Add(1)
	for w := range got {
		got[w] = make([]*PrefixRIB, len(prefixes))
		done.Add(1)
		go func(out []*PrefixRIB) {
			defer done.Done()
			start.Wait()
			for i, p := range prefixes {
				out[i] = tb.Routes(p)
			}
		}(got[w])
	}
	start.Done()
	done.Wait()

	byAtom := make(map[int32]*PrefixRIB)
	distinct := make(map[*PrefixRIB]bool)
	for w := range got {
		for i, p := range prefixes {
			r := got[w][i]
			distinct[r] = true
			if first, ok := byAtom[r.Atom]; ok && first != r {
				t.Fatalf("%v: two RIBs handed out for atom %d", p, r.Atom)
			}
			byAtom[r.Atom] = r
			if r.Atom != tb.atomOf[p] {
				t.Fatalf("%v: got the RIB of atom %d, want atom %d", p, r.Atom, tb.atomOf[p])
			}
		}
	}
	if len(distinct) != tb.Atoms() {
		t.Errorf("%d distinct RIBs for %d atoms", len(distinct), tb.Atoms())
	}
}
