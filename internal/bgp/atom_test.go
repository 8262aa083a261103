package bgp

import (
	"slices"
	"sync"
	"testing"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// TestAtomRIBMatchesPerPrefixOracle is the safety net for RIB sharing:
// for every prefix, the RIB its atom shares equals a fresh per-prefix
// propagation.
func TestAtomRIBMatchesPerPrefixOracle(t *testing.T) {
	for _, prof := range OracleProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			tb := NewTable(topo.Generate(prof, 1))
			or := newOracleTable(tb)
			if tb.Atoms() > len(tb.Prefixes()) || tb.Atoms() == 0 {
				t.Fatalf("%d atoms for %d prefixes", tb.Atoms(), len(tb.Prefixes()))
			}
			for _, p := range tb.Prefixes() {
				got, want := tb.Routes(p), or.compute(p)
				if got.Atom != tb.atomOf[p] {
					t.Fatalf("%v: RIB of atom %d served for atom %d", p, got.Atom, tb.atomOf[p])
				}
				switch {
				case !slices.Equal(got.Class, want.Class):
					t.Fatalf("%v: Class differs from the per-prefix compute", p)
				case !slices.Equal(got.Len, want.Len):
					t.Fatalf("%v: Len differs from the per-prefix compute", p)
				case !slices.Equal(got.Next, want.Next):
					t.Fatalf("%v: Next differs from the per-prefix compute", p)
				case !slices.Equal(got.HostCandidates, want.HostCandidates):
					t.Fatalf("%v: HostCandidates %v, per-prefix compute gives %v", p, got.HostCandidates, want.HostCandidates)
				case got.HostSuppressed != want.HostSuppressed:
					t.Fatalf("%v: HostSuppressed %t, per-prefix compute gives %t", p, got.HostSuppressed, want.HostSuppressed)
				}
			}
			t.Logf("%d prefixes in %d atoms", len(tb.Prefixes()), tb.Atoms())
		})
	}
}

// TestPinnedPrefixesNeverShareAnAtomAcrossLinkSets: two prefixes of one
// origin pinned to different links are different announcements — each is
// a customer route only at the provider its link reaches — while a third
// pinned like the first shares its atom.
func TestPinnedPrefixesNeverShareAnAtomAcrossLinkSets(t *testing.T) {
	n := topo.NewNetwork()
	al := topo.NewAllocator()
	o := n.AddAS(10, topo.TierStub, "org-o")
	pa := n.AddAS(20, topo.TierTransit, "org-a")
	pb := n.AddAS(30, topo.TierTransit, "org-b")
	n.HostASN = 20
	for _, as := range []*topo.AS{o, pa, pb} {
		as.Infra = al.Next(16)
		as.Prefixes = []netx.Prefix{as.Infra}
	}
	n.SetRel(10, 20, topo.RelCustomer)
	n.SetRel(10, 30, topo.RelCustomer)
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
	n.Build()

	tb := NewTable(n)
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
		p          netx.Prefix
		at20, at30 Class
	}{
		{viaA, ClassCustomer, ClassNone},
		{viaB, ClassNone, ClassCustomer},
		{viaA2, ClassCustomer, ClassNone},
		{o.Infra, ClassCustomer, ClassCustomer},
	} {
		if got := tb.ClassAt(20, c.p); got != c.at20 {
			t.Errorf("%v at AS20: class %v, want %v", c.p, got, c.at20)
		}
		if got := tb.ClassAt(30, c.p); got != c.at30 {
			t.Errorf("%v at AS30: class %v, want %v", c.p, got, c.at30)
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
