package probe_test

import (
	"slices"
	"testing"

	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// TestMemoisedWalkMatchesFresh is the forwarding plane's differential
// suite: on every built-in profile, from every VP toward every destination
// the driver would trace — the five addresses of each target block the
// §5.3 retry rule can reach, which share one prefix-keyed walk — and every
// interface address alias resolution could probe, and from every router
// back toward every VP (the reverse walk of ttlExpiredSource),
// Engine.CheckWalk must find the memoised walk equal to a fresh walk to
// that very address and chooseEgress equal to the original scan.
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

// TestPacketCountsPinned guards the paper's cost unit: memoising walks must
// not change how many packets a run is charged. The counts are those one
// Driver.Run spent before the forwarding plane existed.
func TestPacketCountsPinned(t *testing.T) {
	for _, tc := range []struct {
		prof topo.Profile
		want probe.Ledger
	}{
		{topo.TinyProfile(), probe.Ledger{Traceroutes: 161, Probes: 2060, PacketsSent: 2930, ResponsesRcv: 2628}},
		{topo.REProfile(), probe.Ledger{Traceroutes: 1025, Probes: 8150, PacketsSent: 15530, ResponsesRcv: 14298}},
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
			Obs:      reg,
		}).Run()
		if got := probe.ReadLedger(reg); got != tc.want {
			t.Errorf("%s: ledger = %+v, want %+v", tc.prof.Name, got, tc.want)
		}
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
