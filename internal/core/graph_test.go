package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// TestBuildGraphMatchesOracle holds buildGraph to the three-pass oracle on
// every built-in profile, seeds 1–3, and every VP (the first four of
// large-access). The intern table and node creation order, every node's
// addresses, class, origin, hop distance and VP flag, the edges with their
// pairs in order, the succ/pred lists, the three tallies, the visit order,
// the host space, the echo sources and the final routers must be equal;
// and on the built graph every §5.4 helper that reads the per-address
// table must answer as its per-address oracle does.
func TestBuildGraphMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("thirty worlds measured in -short mode")
	}
	for _, prof := range topo.BuiltinProfiles() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", prof.Name, seed), func(t *testing.T) {
				n := topo.Generate(prof, seed)
				in, engine, hosts := measure(n, 0, scamper.Config{})
				vps := len(n.VPs)
				if prof.Name == "large-access" {
					vps = 4
				}
				nodes, hostSpace := 0, 0
				for vp := 0; vp < vps; vp++ {
					if vp > 0 {
						d := &scamper.Driver{
							View:     in.View,
							Prober:   scamper.LocalProber{E: engine, VP: n.VPs[vp]},
							HostASNs: hosts,
						}
						in.Data = d.Run()
					}
					g, err := graphMatchesOracle(in)
					if err != nil {
						t.Fatalf("VP %d: %v", vp, err)
					}
					nodes += len(g.nodes)
					hostSpace += g.hostExtra.Len()
				}
				if nodes == 0 {
					t.Fatal("no router nodes built: nothing was compared")
				}
				t.Logf("%d VPs: %d nodes, %d host-space prefixes", vps, nodes, hostSpace)
			})
		}
	}
}

// graphMatchesOracle builds in's graph both ways and returns the first
// difference, with the graph buildGraph built.
func graphMatchesOracle(in Input) (*graph, error) {
	got := buildGraph(in, &Arena{})
	want, inserted := buildGraphOracle(in, &Arena{})

	if got.intern.Len() != want.intern.Len() {
		return got, fmt.Errorf("intern table holds %d addresses, oracle %d", got.intern.Len(), want.intern.Len())
	}
	for id := range int32(got.intern.Len()) {
		if a, b := got.intern.Addr(id), want.intern.Addr(id); a != b {
			return got, fmt.Errorf("intern ID %d is %v, oracle %v", id, a, b)
		}
	}
	if len(got.nodes) != len(want.nodes) {
		return got, fmt.Errorf("%d nodes, oracle %d", len(got.nodes), len(want.nodes))
	}
	for i := range got.nodes {
		a, b := &got.nodes[i], &want.nodes[i]
		switch {
		case !slices.Equal(a.addrs, b.addrs):
			return got, fmt.Errorf("node %d addrs %v, oracle %v", i, a.addrs, b.addrs)
		case a.class != b.class || a.extAS != b.extAS:
			return got, fmt.Errorf("node %d class %v/%v, oracle %v/%v", i, a.class, a.extAS, b.class, b.extAS)
		case a.minTTL != b.minTTL || a.isVP != b.isVP:
			return got, fmt.Errorf("node %d minTTL %d isVP %t, oracle %d %t", i, a.minTTL, a.isVP, b.minTTL, b.isVP)
		case !slices.Equal(a.succ, b.succ) || !slices.Equal(a.pred, b.pred):
			return got, fmt.Errorf("node %d succ/pred %v/%v, oracle %v/%v", i, a.succ, a.pred, b.succ, b.pred)
		case !slices.Equal(a.dests, b.dests):
			return got, fmt.Errorf("node %d dests %v, oracle %v", i, a.dests, b.dests)
		case !slices.Equal(a.lastFor, b.lastFor):
			return got, fmt.Errorf("node %d lastFor %v, oracle %v", i, a.lastFor, b.lastFor)
		case !slices.Equal(a.firstRoutedAfter, b.firstRoutedAfter):
			return got, fmt.Errorf("node %d firstRoutedAfter %v, oracle %v", i, a.firstRoutedAfter, b.firstRoutedAfter)
		}
	}
	ge, we := got.ar.edges, want.ar.edges
	if len(ge) != len(we) {
		return got, fmt.Errorf("%d edges, oracle %d", len(ge), len(we))
	}
	for e := range ge {
		if ge[e].from != we[e].from || ge[e].to != we[e].to || !slices.Equal(ge[e].pairs, we[e].pairs) {
			return got, fmt.Errorf("edge %d is %+v, oracle %+v", e, ge[e], we[e])
		}
	}
	if !slices.Equal(got.order, want.order) {
		return got, fmt.Errorf("visit order differs from the oracle's")
	}
	if got.hostExtra.Len() != want.hostExtra.Len() {
		return got, fmt.Errorf("host space holds %d prefixes, oracle %d", got.hostExtra.Len(), want.hostExtra.Len())
	}
	for _, p := range inserted {
		if _, ok := got.hostExtra.Exact(p); !ok {
			return got, fmt.Errorf("host space lacks %v", p)
		}
	}
	if !reflect.DeepEqual(got.echoFrom, want.echoFrom) {
		return got, fmt.Errorf("echo sources differ from the oracle's")
	}
	if !reflect.DeepEqual(got.finalNodes, want.finalNodes) {
		return got, fmt.Errorf("final routers differ from the oracle's")
	}

	for id := range int32(got.intern.Len()) {
		if a, b := got.originIsHost(id), got.originIsHostOracle(got.intern.Addr(id)); a != b {
			return got, fmt.Errorf("originIsHost(%v) = %t, oracle %t", got.intern.Addr(id), a, b)
		}
	}
	for id := range int32(len(got.nodes)) {
		ext := slices.Clone(got.succExternalOrigins(id))
		if ref := got.succExternalOriginsOracle(id); !slices.Equal(ext, ref) {
			return got, fmt.Errorf("node %d succExternalOrigins %v, oracle %v", id, ext, ref)
		}
		if a, b := got.allSuccUnrouted(id), got.allSuccUnroutedOracle(id); a != b {
			return got, fmt.Errorf("node %d allSuccUnrouted %t, oracle %t", id, a, b)
		}
		if a, b := got.hostSuccessor(id), got.hostSuccessorOracle(id); a != b {
			return got, fmt.Errorf("node %d hostSuccessor %d, oracle %d", id, a, b)
		}
	}
	for e := range int32(len(ge)) {
		if a, b := got.edgeOrigin(e), got.edgeOriginOracle(e); a != b {
			return got, fmt.Errorf("edge %d edgeOrigin %v, oracle %v", e, a, b)
		}
	}
	return got, nil
}
