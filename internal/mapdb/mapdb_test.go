package mapdb

import (
	"reflect"
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// tinyScenario runs the full pipeline once on the tiny world; the compile
// tests want real inference output, not synthetic shapes.
func tinyScenario(t testing.TB, seed int64) *eval.Scenario {
	t.Helper()
	s := eval.Build(topo.TinyProfile(), seed)
	s.RunAll()
	return s
}

func TestCompileAgainstResults(t *testing.T) {
	s := tinyScenario(t, 1)
	snap := Compile(s.Net.HostASN, s.Results)

	if snap.HostASN() != s.Net.HostASN {
		t.Fatalf("host = %v, want %v", snap.HostASN(), s.Net.HostASN)
	}
	if snap.Gen() != 0 {
		t.Fatalf("unpublished snapshot has gen %d, want 0", snap.Gen())
	}
	if snap.NumLinks() == 0 || snap.NumOwners() == 0 {
		t.Fatalf("empty snapshot: %d links, %d owners", snap.NumLinks(), snap.NumOwners())
	}

	// Every attributed router address resolves to its router's owner.
	for _, res := range s.Results {
		for _, rn := range res.Routers {
			if rn.Owner == 0 {
				continue
			}
			for _, a := range rn.Addrs {
				o, ok := snap.Owner(a)
				if !ok {
					t.Fatalf("owner of %v missing", a)
				}
				if o.AS != rn.Owner {
					t.Errorf("owner of %v = %v, want %v", a, o.AS, rn.Owner)
				}
				if o.Host != rn.IsHost || o.HopDist != rn.HopDist {
					t.Errorf("owner meta of %v = %+v, want host=%v hop=%d", a, o, rn.IsHost, rn.HopDist)
				}
			}
		}
	}

	// Every result link answers the hop-pair query, and Owner agrees with
	// the linear-scan control on hits and misses alike.
	for _, res := range s.Results {
		for _, l := range res.Links {
			got, ok := snap.Link(l.NearAddr, l.FarAddr)
			if !ok {
				t.Fatalf("link (%v,%v) missing", l.NearAddr, l.FarAddr)
			}
			if got.FarAS != l.FarAS {
				t.Errorf("link (%v,%v) far AS = %v, want %v", l.NearAddr, l.FarAddr, got.FarAS, l.FarAS)
			}
		}
	}
	probes := append([]netx.Addr{}, snap.ownerAddrs...)
	probes = append(probes, 0, 1, netx.MustParseAddr("203.0.113.9"), ^netx.Addr(0))
	for _, a := range probes {
		gotO, gotOK := snap.Owner(a)
		wantO, wantOK := snap.ownerLinear(a)
		if gotOK != wantOK || gotO != wantO {
			t.Fatalf("Owner(%v) = %+v,%v; linear scan says %+v,%v", a, gotO, gotOK, wantO, wantOK)
		}
	}

	// An unknown hop pair is a miss, not a panic or a wrong hit.
	if _, ok := snap.Link(netx.MustParseAddr("203.0.113.1"), netx.MustParseAddr("203.0.113.2")); ok {
		t.Error("unknown hop pair resolved to a link")
	}

	// Neighbor index covers exactly the served links.
	total := 0
	for _, as := range snap.NeighborASes() {
		links := snap.Neighbors(as)
		if len(links) == 0 {
			t.Fatalf("neighbor %v indexed with no links", as)
		}
		for _, l := range links {
			if l.FarAS != as {
				t.Fatalf("neighbor %v returned link of %v", as, l.FarAS)
			}
		}
		total += len(links)
	}
	if total != snap.NumLinks() {
		t.Fatalf("neighbor index covers %d links, snapshot has %d", total, snap.NumLinks())
	}
}

// TestLookupsAllocateNothing holds the serving hot paths — Owner, Link and
// the span search under Neighbors — to zero allocations, hit or miss.
func TestLookupsAllocateNothing(t *testing.T) {
	snap := Compile(64500, []*core.Result{syntheticResult("vp", 64, 65000)})
	l := snap.links[len(snap.links)/2]
	a := snap.ownerAddrs[len(snap.ownerAddrs)/2]
	var sink int32
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := snap.Owner(a); ok {
			sink++
		}
		if _, ok := snap.Owner(a + 1000); ok {
			sink++
		}
		if _, ok := snap.Link(l.Near, l.Far); ok {
			sink++
		}
		if _, ok := snap.Link(l.Far, l.Near); ok {
			sink++
		}
		lo, hi := snap.neighborSpan(l.FarAS)
		sink += hi - lo
		lo, hi = snap.neighborSpan(l.FarAS + 100000)
		sink += hi - lo
	}); n != 0 {
		t.Fatalf("lookups allocate %.0f times per round, want 0", n)
	}
	if sink == 0 {
		t.Fatal("no lookup hit")
	}
}

func TestCompileDeterministic(t *testing.T) {
	sa, sb := tinyScenario(t, 1), tinyScenario(t, 1)
	a := Compile(sa.Net.HostASN, sa.Results)
	b := Compile(sb.Net.HostASN, sb.Results)
	if !reflect.DeepEqual(a.links, b.links) {
		t.Error("link sets differ across identical compiles")
	}
	if !reflect.DeepEqual(a.ownerAddrs, b.ownerAddrs) || !reflect.DeepEqual(a.owners, b.owners) {
		t.Error("owner indexes differ across identical compiles")
	}
}

// syntheticResult builds an inference result of nLinks distinct
// interconnects without running the pipeline — the store/bench substrate.
func syntheticResult(vp string, nLinks int, farBase topo.ASN) *core.Result {
	res := &core.Result{VPName: vp, Neighbors: make(map[topo.ASN][]*core.Link)}
	for i := 0; i < nLinks; i++ {
		base := netx.Addr(0x0a000000 + uint32(i)*4)
		near, far := base+1, base+2
		farAS := farBase + topo.ASN(i%509)
		nearNode := &core.RouterNode{
			ID: 2 * i, Addrs: []netx.Addr{near},
			Owner: 64500, Heuristic: core.HeurHostNetwork, IsHost: true, HopDist: 2,
		}
		farNode := &core.RouterNode{
			ID: 2*i + 1, Addrs: []netx.Addr{far},
			Owner: farAS, Heuristic: core.HeurRelationship, HopDist: 3,
		}
		l := &core.Link{
			Near: nearNode, Far: farNode,
			NearAddr: near, FarAddr: far,
			FarAS: farAS, Heuristic: core.HeurRelationship,
		}
		res.Routers = append(res.Routers, nearNode, farNode)
		res.Links = append(res.Links, l)
		res.Neighbors[farAS] = append(res.Neighbors[farAS], l)
	}
	return res
}

func TestStoreGenerationsAndDiffs(t *testing.T) {
	st := NewStore(3, nil)
	if st.Current() != nil {
		t.Fatal("empty store has a current snapshot")
	}

	// Gen 1: 4 links. Gen 2: one removed, one added, one owner flipped.
	r1 := syntheticResult("vp", 4, 60000)
	if d := st.Publish(Compile(64500, []*core.Result{r1})); d != nil {
		t.Fatalf("first publish returned diff %+v", d)
	}
	if g := st.Current().Gen(); g != 1 {
		t.Fatalf("gen = %d, want 1", g)
	}

	r2 := syntheticResult("vp", 4, 60000)
	r2.Links = r2.Links[1:]                  // drop one interconnect
	r2.Routers[3].Owner = 61000              // re-attribute one far router
	extra := syntheticResult("vp", 1, 62000) // and a brand-new neighbor
	extra.Links[0].NearAddr += 0x00100000    // distinct subnet
	extra.Links[0].FarAddr += 0x00100000
	extra.Routers[0].Addrs = []netx.Addr{extra.Links[0].NearAddr}
	extra.Routers[1].Addrs = []netx.Addr{extra.Links[0].FarAddr}
	r2.Routers = append(r2.Routers, extra.Routers...)
	r2.Links = append(r2.Links, extra.Links...)

	d := st.Publish(Compile(64500, []*core.Result{r2}))
	if d == nil {
		t.Fatal("second publish returned no diff")
	}
	if d.From != 1 || d.To != 2 {
		t.Fatalf("diff spans %d->%d, want 1->2", d.From, d.To)
	}
	if len(d.Added) != 1 || len(d.Removed) != 1 {
		t.Fatalf("diff added=%d removed=%d, want 1 and 1", len(d.Added), len(d.Removed))
	}
	if len(d.OwnerChanges) != 1 || d.OwnerChanges[0].From != 60001 || d.OwnerChanges[0].To != 61000 {
		t.Fatalf("owner changes = %+v, want one 60001->61000", d.OwnerChanges)
	}
	if len(d.NeighborsAdded) != 1 || d.NeighborsAdded[0] != 62000 {
		t.Fatalf("neighbors added = %v, want [62000]", d.NeighborsAdded)
	}

	// The cached adjacent diff and the recomputed one agree.
	d2, err := st.Diff(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, d2) {
		t.Error("cached diff differs from Diff(1,2)")
	}

	// History is bounded: after 4 publishes with maxHist=3, gen 1 is gone.
	st.Publish(Compile(64500, []*core.Result{r2}))
	st.Publish(Compile(64500, []*core.Result{r2}))
	if got := st.Generations(); !reflect.DeepEqual(got, []int{2, 3, 4}) {
		t.Fatalf("generations = %v, want [2 3 4]", got)
	}
	if _, ok := st.Generation(1); ok {
		t.Error("evicted generation still retrievable")
	}
	if _, err := st.Diff(1, 4); err == nil {
		t.Error("diff against evicted generation succeeded")
	}
	if d, err := st.Diff(3, 4); err != nil || !d.Empty() {
		t.Errorf("identical generations diff = %+v, %v; want empty", d, err)
	}
	// Non-adjacent retained pair works (computed on demand).
	if _, err := st.Diff(2, 4); err != nil {
		t.Errorf("Diff(2,4): %v", err)
	}
}
