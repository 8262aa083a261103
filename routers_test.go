package bdrmap

import (
	"fmt"
	"strings"
	"testing"

	"bdrmap/internal/alias"
	"bdrmap/internal/eval"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// TestHopAddressesHaveOneRouter: every address that answered a VP's
// traceroute with time-exceeded is an interface of exactly one inferred
// router of the VP's result, and the VP's compiled owner table attributes
// it. The inference creates a router the first time one of an alias set's
// addresses is seen and gives the set's canonical address that router on
// the alias's behalf; the canonical address must still join the router's
// addresses when it is itself seen as a hop, or its owner row is lost.
func TestHopAddressesHaveOneRouter(t *testing.T) {
	for _, prof := range topo.BuiltinProfiles() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", prof.Name, seed), func(t *testing.T) {
				if testing.Short() && prof.Name != "tiny" && prof.Name != "r&e" {
					t.Skip("-short: tiny and r&e only")
				}
				s := eval.Build(prof, seed)
				s.RunAll()
				for vp, ds := range s.Datasets {
					res := s.Results[vp]
					in := make(map[netx.Addr]int)
					for _, rn := range res.Routers {
						for _, a := range rn.Addrs {
							in[a]++
						}
					}
					snap := mapdb.Compile(s.Net.HostASN, s.Results[vp:vp+1])
					checked := make(map[netx.Addr]bool)
					for _, tr := range ds.Traces {
						for _, h := range tr.Hops {
							if h.Type != probe.HopTimeExceeded || checked[h.Addr] {
								continue
							}
							checked[h.Addr] = true
							if in[h.Addr] != 1 {
								t.Errorf("VP %d: hop %v is in %d routers, want 1", vp, h.Addr, in[h.Addr])
							}
							if _, ok := snap.Owner(h.Addr); !ok {
								t.Errorf("VP %d: hop %v has no owner row", vp, h.Addr)
							}
						}
					}
				}
			})
		}
	}
}

// TestAllyPositivesJoinOneRouter: the driver's candidate pairs are
// addresses seen before a common successor, in-interfaces of the router at
// the far end of the successor's link, so on the 4-VP large-access world
// Ally finds aliases, and every pair it accepts is two interfaces of one
// true router. Pairs of addresses seen after a common predecessor, which
// are distinct routers, give Ally no positive at all.
func TestAllyPositivesJoinOneRouter(t *testing.T) {
	prof := topo.LargeAccessProfile()
	prof.NumVPs = 4
	s := eval.Build(prof, 1)
	s.Trace = obs.NewTracer()
	s.RunAll()
	pos := 0
	for _, e := range s.Trace.Events() {
		if e.Kind != "ally" || e.Attr("verdict") != alias.AliasYes.String() {
			continue
		}
		pos++
		pair := strings.Split(e.Subject, "|")
		if len(pair) != 2 {
			t.Fatalf("Ally event on %q, want an address pair", e.Subject)
		}
		a, b := netx.MustParseAddr(pair[0]), netx.MustParseAddr(pair[1])
		ra, rb := s.Net.RouterByAddr(a), s.Net.RouterByAddr(b)
		if ra == nil || ra != rb {
			t.Errorf("Ally joins %v and %v, interfaces of routers %v and %v", a, b, ra, rb)
		}
	}
	t.Logf("%d Ally positives", pos)
	if pos == 0 {
		t.Error("Ally accepted no pair")
	}
}
