package probe_test

import (
	"slices"
	"testing"

	"bdrmap/internal/bgp"
	"bdrmap/internal/eval"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// TestMemoisedWalkMatchesFresh is the forwarding plane's differential
// suite: on every built-in profile (tiny and r&e under -short), from every
// VP toward every destination the driver would trace — the five addresses
// of each target block the §5.3 retry rule can reach, which share one
// prefix-keyed walk — the first address of every routed prefix, and every
// interface address alias resolution could probe, and from every router
// back toward every VP (the reverse walk of ttlExpiredSource),
// Engine.CheckWalk must decode the stored walk, on its miss and its hit, to
// the pointer walk the plane stored before its steps lost their pointers —
// steps, reached, anchorReplies and exact interface — computed fresh to
// that very address, and find chooseEgress equal to the original scan.
func TestMemoisedWalkMatchesFresh(t *testing.T) {
	for _, prof := range topo.BuiltinProfiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			if testing.Short() && prof.Name != "tiny" && prof.Name != "r&e" {
				t.Skip("-short: tiny and r&e only")
			}
			n := topo.Generate(prof, 1)
			tab := bgp.NewTable(n)
			view := bgp.Collect(tab, bgp.DefaultVantages(n))
			var dsts []netx.Addr
			for _, tg := range scamper.Targets(view, map[topo.ASN]bool{n.HostASN: true}) {
				for _, b := range tg.Blocks {
					for dst := b.First + 1; dst <= b.First+5 && b.Contains(dst); dst++ {
						dsts = append(dsts, dst)
					}
				}
			}
			for _, p := range tab.Prefixes() {
				dsts = append(dsts, p.First())
			}
			for _, r := range n.Routers {
				for _, ifc := range r.Ifaces {
					dsts = append(dsts, ifc.Addr)
				}
			}
			e := probe.New(n, tab)
			walked := make(map[topo.RouterID]bool) // a walk depends on the VP's router only
			for _, vp := range n.VPs {
				if !walked[vp.Router] {
					walked[vp.Router] = true
					for _, dst := range dsts {
						if err := e.CheckWalk(vp.Router, dst); err != nil {
							t.Fatalf("%s: %v", vp.Name, err)
						}
					}
				}
				for _, r := range n.Routers {
					if err := e.CheckWalk(r.ID, vp.Addr); err != nil {
						t.Fatalf("%s (reverse): %v", vp.Name, err)
					}
				}
			}
			t.Logf("%d VPs × %d destinations, %d routers", len(n.VPs), len(dsts), len(n.Routers))
		})
	}
}

// TestBFSMatchesOracle holds the slice BFS trees to the map-based ones on
// every built-in profile. Every VP walks toward the first address of every
// routed prefix — VP 0 through CheckWalk, so each of its walks is also held
// to a fresh walk and its egress choices to the two-pass scan — and then
// every tree those walks built must answer igpDist and nextHopFrom for
// every router as the oracle does.
func TestBFSMatchesOracle(t *testing.T) {
	for _, prof := range topo.BuiltinProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			if testing.Short() && prof.Name != "tiny" && prof.Name != "r&e" {
				t.Skip("-short: tiny and r&e only")
			}
			n := topo.Generate(prof, 1)
			tab := bgp.NewTable(n)
			e := probe.New(n, tab)
			for i, vp := range n.VPs {
				for _, p := range tab.Prefixes() {
					if i > 0 {
						e.Reachable(vp, p.First()+1)
					} else if err := e.CheckWalk(vp.Router, p.First()+1); err != nil {
						t.Fatal(err)
					}
				}
			}
			trees, err := e.CheckBFS()
			if err != nil {
				t.Fatal(err)
			}
			if trees == 0 {
				t.Fatal("the walks built no BFS tree: nothing was compared")
			}
			t.Logf("%d VPs × %d prefixes: %d trees over %d routers", len(n.VPs), len(tab.Prefixes()), trees, len(n.Routers))
		})
	}
}

// TestOrgIndexMatchesSameOrg holds the router index's organisation numbers
// to topo.Network.SameOrg on every built-in profile, and on a world with
// the cases the profiles lack: ASes with no organisation name, which are
// each their own organisation, and routers whose owner has no AS record.
func TestOrgIndexMatchesSameOrg(t *testing.T) {
	n := topo.NewNetwork()
	for _, as := range []struct {
		asn topo.ASN
		org string
	}{{1, "org-a"}, {2, "org-a"}, {3, ""}, {4, ""}, {5, "org-b"}} {
		n.AddAS(as.asn, topo.TierStub, as.org)
	}
	for _, owner := range []topo.ASN{1, 2, 3, 3, 4, 5, 6, 6, 7} {
		n.AddRouter(owner, "r", 0)
	}
	n.Build()
	nets := []*topo.Network{n}
	for _, prof := range topo.BuiltinProfiles() {
		if !testing.Short() || prof.Name == "tiny" || prof.Name == "r&e" {
			nets = append(nets, topo.Generate(prof, 1))
		}
	}
	for i, n := range nets {
		if err := probe.New(n, nil).CheckOrgIndex(); err != nil {
			t.Errorf("world %d: %v", i, err)
		}
	}
}

// BenchmarkColdPlane times the forwarding plane cold: a fresh plane and lane
// tracing the first address of every routed prefix from large-access VP 0,
// so every walk, BFS tree, egress set and the router index is derived once.
func BenchmarkColdPlane(b *testing.B) {
	n := topo.Generate(topo.LargeAccessProfile(), 1)
	tab := bgp.NewTable(n)
	vp := n.VPs[0]
	var dsts []netx.Addr
	for _, p := range tab.Prefixes() {
		dsts = append(dsts, p.First()+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		e := probe.New(n, tab)
		lane := e.NewLane(vp, 0)
		for _, dst := range dsts {
			lane.Trace(dst, nil, nil)
		}
	}
}

// TestPacketCountsPinned guards the paper's cost unit: one Driver.Run from
// VP 0 is charged exactly these packets, and the benchmark's cold-map
// world (large-access, 4 VPs) mapped by a fleet, whose VPs share one alias
// book, exactly its row. Memoising walks must not move them; a change to
// what the run measures moves them on purpose. The ablation without
// either doubletree stop set is pinned on r&e: it walks every trace from
// TTL 1 to its end, as the driver did before either stop set was built.
func TestPacketCountsPinned(t *testing.T) {
	largeAccess := topo.LargeAccessProfile()
	largeAccess.NumVPs = 4
	for _, tc := range []struct {
		prof topo.Profile
		cfg  scamper.Config
		want probe.Ledger
	}{
		{topo.TinyProfile(), scamper.Config{}, probe.Ledger{Traceroutes: 161, Probes: 51, PacketsSent: 722, ResponsesRcv: 702}},
		{topo.REProfile(), scamper.Config{}, probe.Ledger{Traceroutes: 1025, Probes: 262, PacketsSent: 5579, ResponsesRcv: 5392}},
		{topo.REProfile(), scamper.Config{DisableStopSet: true}, probe.Ledger{Traceroutes: 1025, Probes: 262, PacketsSent: 7972, ResponsesRcv: 7785}},
		{largeAccess, scamper.Config{}, probe.Ledger{Traceroutes: 4200, Probes: 952, PacketsSent: 16424, ResponsesRcv: 16126}},
	} {
		n := topo.Generate(tc.prof, 1)
		tab := bgp.NewTable(n)
		reg := obs.New()
		e := probe.New(n, tab)
		e.SetObs(reg)
		(&scamper.Driver{
			View:     bgp.Collect(tab, bgp.DefaultVantages(n)),
			Prober:   scamper.LocalProber{E: e, VP: n.VPs[0]},
			HostASNs: map[topo.ASN]bool{n.HostASN: true},
			Cfg:      tc.cfg,
			Obs:      reg,
		}).Run()
		if got := probe.ReadLedger(reg); got != tc.want {
			t.Errorf("%s %+v: ledger = %+v, want %+v", tc.prof.Name, tc.cfg, got, tc.want)
		}
	}

	s := eval.Build(largeAccess, 1)
	if _, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{}); err != nil {
		t.Fatal(err)
	}
	want := probe.Ledger{Traceroutes: 17569, Probes: 1118, PacketsSent: 66047, ResponsesRcv: 64861}
	if got := probe.ReadLedger(s.Obs); got != want {
		t.Errorf("%s fleet: ledger = %+v, want %+v", largeAccess.Name, got, want)
	}
}

// TestEgressSetAtomKeyMatchesPrefixKey: keying the egress memo by
// announcement atom serves every prefix the set its own origins and pinned
// links define, whichever prefix of the atom filled the entry, and holds
// one set per (AS, atom) asked for rather than per (AS, prefix).
func TestEgressSetAtomKeyMatchesPrefixKey(t *testing.T) {
	for _, prof := range topo.BuiltinProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			if testing.Short() && prof.Name != "tiny" && prof.Name != "r&e" {
				t.Skip("-short: tiny and r&e only")
			}
			n := topo.Generate(prof, 1)
			tab := bgp.NewTable(n)
			prefixes := slices.Clone(tab.Prefixes())
			for _, order := range []string{"ascending", "descending"} {
				held, asked, err := probe.New(n, tab).CheckEgressSets(prefixes)
				if err != nil {
					t.Fatalf("%s: %v", order, err)
				}
				if held != asked {
					t.Errorf("%s: %d egress sets held for %d (AS, atom) pairs asked", order, held, asked)
				}
				slices.Reverse(prefixes)
			}
		})
	}
}

// TestChooseEgressReadsEachDistanceOnce: on tiny and r&e, chooseEgress
// picks at every router toward every announced prefix the attachment the
// two-pass scan picks, ties spread the same way.
func TestChooseEgressReadsEachDistanceOnce(t *testing.T) {
	for _, prof := range []topo.Profile{topo.TinyProfile(), topo.REProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			n := topo.Generate(prof, 1)
			chosen, err := probe.New(n, bgp.NewTable(n)).CheckEgressChoices()
			if err != nil {
				t.Fatal(err)
			}
			if chosen == 0 {
				t.Fatal("no router chose an egress")
			}
			t.Logf("%d choices", chosen)
		})
	}
}
