package alias

import (
	"testing"
	"time"

	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

func setup(t *testing.T, seed int64) (*probe.Engine, *topo.Network, *Resolver) {
	t.Helper()
	n := topo.Generate(topo.TinyProfile(), seed)
	e := probe.New(n, bgp.NewTable(n))
	r := NewResolver(e.NewLane(n.VPs[0], 0), Config{})
	return e, n, r
}

// findRouter returns a reachable router matching pred with >= 2 reachable
// interfaces.
func findRouter(e *probe.Engine, n *topo.Network, vp *topo.VP, pred func(*topo.Router) bool) (*topo.Router, []netx.Addr) {
	for _, r := range n.Routers {
		if !pred(r) {
			continue
		}
		var addrs []netx.Addr
		for _, ifc := range r.Ifaces {
			if !ifc.Addr.IsZero() && e.Reachable(vp, ifc.Addr) {
				addrs = append(addrs, ifc.Addr)
			}
		}
		if len(addrs) >= 2 {
			return r, addrs
		}
	}
	return nil, nil
}

func TestAllySameRouterShared(t *testing.T) {
	e, n, res := setup(t, 1)
	r, addrs := findRouter(e, n, n.VPs[0], func(r *topo.Router) bool {
		return r.Behavior.IPID == topo.IPIDShared && !r.Behavior.NoEchoReply && !r.Behavior.NoTTLExpired
	})
	if r == nil {
		t.Skip("no shared-counter router with two reachable ifaces")
	}
	if v := res.Ally(addrs[0], addrs[1]); v != AliasYes {
		t.Fatalf("Ally(%v, %v) = %v, want alias (router %v)", addrs[0], addrs[1], v, r)
	}
}

func TestAllyDifferentRouters(t *testing.T) {
	e, n, res := setup(t, 2)
	var addrs []netx.Addr
	for _, r := range n.Routers {
		if r.Behavior.IPID != topo.IPIDShared || r.Behavior.NoEchoReply {
			continue
		}
		for _, ifc := range r.Ifaces {
			if !ifc.Addr.IsZero() && e.Reachable(n.VPs[0], ifc.Addr) {
				addrs = append(addrs, ifc.Addr)
				break
			}
		}
		if len(addrs) == 2 {
			break
		}
	}
	if len(addrs) < 2 {
		t.Skip("not enough reachable shared-counter routers")
	}
	if v := res.Ally(addrs[0], addrs[1]); v == AliasYes {
		t.Fatalf("Ally claimed aliases across different routers (%v, %v)", addrs[0], addrs[1])
	}
	// Nor does Resolve, which is Mercator and then Ally.
	if v := NewResolver(e.NewLane(n.VPs[0], 0), Config{}).Resolve(addrs[0], addrs[1]); v == AliasYes {
		t.Fatalf("Resolve claimed aliases across different routers (%v, %v)", addrs[0], addrs[1])
	}
}

func TestAllyRandomIPIDRejected(t *testing.T) {
	e, n, res := setup(t, 3)
	r, addrs := findRouter(e, n, n.VPs[0], func(r *topo.Router) bool {
		return r.Behavior.IPID == topo.IPIDRandom && !r.Behavior.NoEchoReply
	})
	if r == nil {
		t.Skip("no random-IPID router with two reachable ifaces")
	}
	if v := res.Ally(addrs[0], addrs[1]); v == AliasYes {
		t.Fatal("Ally accepted a random-IPID router (should reject or be unknown)")
	}
}

// countingSource counts what a resolver spends through it: probes sent,
// in all and per method, and lane time advanced.
type countingSource struct {
	probe.Source
	probes   int
	byMethod [4]int
	elapsed  time.Duration
}

func (c *countingSource) Probe(a netx.Addr, m probe.Method) probe.Response {
	c.probes++
	c.byMethod[m]++
	return c.Source.Probe(a, m)
}

func (c *countingSource) Advance(d time.Duration) {
	c.elapsed += d
	c.Source.Advance(d)
}

// TestResolveStopsAtAlly pins Resolve to the paper's tests: on a pair
// Ally leaves Unknown, Resolve costs exactly what Mercator and then Ally
// cost on their own, and sends nothing after them.
func TestResolveStopsAtAlly(t *testing.T) {
	e, n, _ := setup(t, 3)
	vp := n.VPs[0]
	_, random := findRouter(e, n, vp, func(r *topo.Router) bool {
		return r.Behavior.IPID == topo.IPIDRandom && !r.Behavior.NoEchoReply && !r.Behavior.MercatorCanonical
	})
	if random == nil {
		t.Fatal("no random-IPID, non-canonical router with two reachable ifaces")
	}
	// Addresses no router holds: no probe method gets an answer.
	silent := [2]netx.Addr{netx.MustParseAddr("240.0.0.1"), netx.MustParseAddr("240.0.0.2")}
	for _, tc := range []struct {
		name string
		a, b netx.Addr
	}{
		{"random-ipid", random[0], random[1]},
		{"unanswered", silent[0], silent[1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alone := &countingSource{Source: e.NewLane(vp, 0)}
			r := NewResolver(alone, Config{})
			if v := r.Mercator(tc.a, tc.b); v != Unknown {
				t.Fatalf("Mercator = %v, want unknown", v)
			}
			if v := r.Ally(tc.a, tc.b); v != Unknown {
				t.Fatalf("Ally = %v, want unknown", v)
			}
			both := &countingSource{Source: e.NewLane(vp, 0)}
			if v := NewResolver(both, Config{}).Resolve(tc.a, tc.b); v != Unknown {
				t.Fatalf("Resolve = %v, want unknown", v)
			}
			if both.probes != alone.probes || both.elapsed != alone.elapsed {
				t.Fatalf("Resolve spent %d probes and %v, Mercator and Ally %d probes and %v",
					both.probes, both.elapsed, alone.probes, alone.elapsed)
			}
		})
	}
}

// dropSource drops the response to the probe numbered drop (1-based)
// among those sent through it.
type dropSource struct {
	probe.Source
	sent, drop int
}

func (d *dropSource) Probe(a netx.Addr, m probe.Method) probe.Response {
	d.sent++
	if d.sent == d.drop {
		return probe.Response{}
	}
	return d.Source.Probe(a, m)
}

// TestAllyStopsWhenBlind pins what a blind round costs: a pair with an
// address whose IP-IDs are no counter ends after one interleaved sequence,
// a later pair holding that address sends nothing, and a round lost to a
// dropped response is not blind.
func TestAllyStopsWhenBlind(t *testing.T) {
	e, n, _ := setup(t, 3)
	vp := n.VPs[0]
	answers := func(mode topo.IPIDMode) func(*topo.Router) bool {
		return func(r *topo.Router) bool {
			return r.Behavior.IPID == mode && !r.Behavior.NoEchoReply && r.Behavior.RateLimitPPS == 0
		}
	}
	_, random := findRouter(e, n, vp, answers(topo.IPIDRandom))
	_, zero := findRouter(e, n, vp, answers(topo.IPIDZero))
	_, shared := findRouter(e, n, vp, answers(topo.IPIDShared))
	if random == nil || zero == nil || shared == nil {
		t.Fatal("tiny seed 3 lacks a random-, zero- or shared-IPID router with two reachable ifaces")
	}
	for _, tc := range []struct {
		name string
		a, b netx.Addr
	}{
		{"random-ipid", random[0], random[1]},
		{"zero-ipid", zero[0], zero[1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pick := &countingSource{Source: e.NewLane(vp, 0)}
			if _, ok := NewResolver(pick, Config{}).pickMethod(tc.a, tc.b); !ok {
				t.Fatal("no probe method both addresses answer")
			}
			src := &countingSource{Source: e.NewLane(vp, 0)}
			r := NewResolver(src, Config{})
			if v := r.Ally(tc.a, tc.b); v != Unknown {
				t.Fatalf("Ally = %v, want unknown", v)
			}
			if want := pick.probes + allySamples; src.probes != want || src.elapsed != allySamples*probeGap {
				t.Fatalf("Ally spent %d probes and %v, want %d and %v (method choice plus one sequence)",
					src.probes, src.elapsed, want, allySamples*probeGap)
			}
			if !r.Blind(tc.a) || !r.Blind(tc.b) {
				t.Fatalf("Blind = %v, %v after a round on no counter", r.Blind(tc.a), r.Blind(tc.b))
			}
			// A later pair sharing a blind address sends nothing.
			before, elapsed := src.probes, src.elapsed
			if v := r.Ally(tc.a, shared[0]); v != Unknown {
				t.Fatalf("Ally on a blind address = %v, want unknown", v)
			}
			if src.probes != before || src.elapsed != elapsed {
				t.Fatalf("Ally on a blind address spent %d probes and %v", src.probes-before, src.elapsed-elapsed)
			}
		})
	}
	t.Run("lost-round", func(t *testing.T) {
		pick := &countingSource{Source: e.NewLane(vp, 0)}
		if _, ok := NewResolver(pick, Config{}).pickMethod(shared[0], shared[1]); !ok {
			t.Fatal("no probe method both addresses answer")
		}
		// Drop the first round's fourth sample: the round is lost, not
		// blind, although its missing samples would fail the counter test.
		src := &countingSource{Source: &dropSource{Source: e.NewLane(vp, 0), drop: pick.probes + 4}}
		r := NewResolver(src, Config{})
		if v := r.Ally(shared[0], shared[1]); v != Unknown {
			t.Fatalf("Ally = %v, want unknown (one round lost)", v)
		}
		if r.Blind(shared[0]) || r.Blind(shared[1]) {
			t.Fatal("a lost round marked a counter address blind")
		}
		rounds := Config{}.withDefaults().AllyRounds
		if want := pick.probes + 4 + (rounds-1)*allySamples; src.probes != want {
			t.Fatalf("Ally sent %d probes, want %d (all %d rounds)", src.probes, want, rounds)
		}
		if got := src.elapsed / allyInterval; got != time.Duration(rounds-1) {
			t.Fatalf("Ally waited %d intervals, want %d", got, rounds-1)
		}
	})
}

// TestResolverAsksOnce pins the resolver's answers: within one stage an
// address is asked each method once it has answered it, so Resolve's
// Mercator reuses the sweep's UDP replies and Ally's method choice skips
// what the sweep already learned; a probe that got no reply is sent again.
func TestResolverAsksOnce(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 3)
	vp := n.VPs[0]
	e := probe.New(n, bgp.NewTable(n))
	answers := func(r *topo.Router) bool {
		return r.Behavior.IPID == topo.IPIDShared && !r.Behavior.NoEchoReply &&
			!r.Behavior.NoUDPUnreach && r.Behavior.RateLimitPPS == 0
	}
	_, pair := findRouter(e, n, vp, answers)
	if pair == nil {
		t.Fatal("tiny seed 3 lacks a shared-IPID router answering echo and UDP with two reachable ifaces")
	}
	sweep := func(r *Resolver, addrs ...netx.Addr) {
		for _, a := range addrs {
			if _, ok := r.UDPSource(a); !ok {
				t.Fatalf("sweep: %v did not answer UDP", a)
			}
		}
	}

	t.Run("mercator", func(t *testing.T) {
		src := &countingSource{Source: e.NewLane(vp, 0)}
		r := NewResolver(src, Config{})
		sweep(r, pair[0], pair[1])
		before := src.byMethod[probe.MethodUDP]
		r.Resolve(pair[0], pair[1])
		if sent := src.byMethod[probe.MethodUDP] - before; sent != 0 {
			t.Fatalf("Resolve sent %d UDP probes after the sweep, want 0", sent)
		}
		if r.Reused() < 2 {
			t.Fatalf("Reused = %d, want at least Mercator's two answers", r.Reused())
		}
	})

	t.Run("pick-method", func(t *testing.T) {
		// An echo-silent router that answers UDP: Ally's choice asks echo
		// of the first address, which is silent, so the second is not
		// asked, and UDP is the sweep's answer for both.
		rtr := n.RouterByAddr(pair[0])
		defer func(b topo.Behavior) { rtr.Behavior = b }(rtr.Behavior)
		rtr.Behavior.NoEchoReply = true
		src := &countingSource{Source: e.NewLane(vp, 0)}
		r := NewResolver(src, Config{})
		sweep(r, pair[0], pair[1])
		before := src.byMethod
		m, ok := r.pickMethod(pair[0], pair[1])
		if !ok || m != probe.MethodUDP {
			t.Fatalf("pickMethod = %v, %v, want udp", m, ok)
		}
		want := before
		want[probe.MethodICMPEcho]++
		if src.byMethod != want {
			t.Fatalf("pickMethod sent %v probes per method, want only one echo probe (%v)", src.byMethod, want)
		}
	})

	t.Run("silence-asked-again", func(t *testing.T) {
		src := &countingSource{Source: &dropSource{Source: e.NewLane(vp, 0), drop: 1}}
		r := NewResolver(src, Config{})
		if _, ok := r.UDPSource(pair[0]); ok {
			t.Fatal("a dropped reply answered")
		}
		from, ok := r.UDPSource(pair[0])
		if !ok || src.probes != 2 {
			t.Fatalf("after a dropped reply: ok = %v after %d probes, want an answer from a second probe", ok, src.probes)
		}
		if again, ok := r.UDPSource(pair[0]); !ok || again != from || src.probes != 2 || r.Reused() != 1 {
			t.Fatalf("third ask: %v, %v after %d probes, %d reused; want %v from the table", again, ok, src.probes, r.Reused(), from)
		}
	})
}

func TestAllyZeroIPIDUnknown(t *testing.T) {
	e, n, res := setup(t, 4)
	r, addrs := findRouter(e, n, n.VPs[0], func(r *topo.Router) bool {
		return r.Behavior.IPID == topo.IPIDZero && !r.Behavior.NoEchoReply
	})
	if r == nil {
		t.Skip("no zero-IPID router with two reachable ifaces")
	}
	if v := res.Ally(addrs[0], addrs[1]); v != Unknown {
		t.Fatalf("Ally on zero IPIDs = %v, want unknown", v)
	}
}

func TestMercatorCanonical(t *testing.T) {
	e, n, res := setup(t, 5)
	r, addrs := findRouter(e, n, n.VPs[0], func(r *topo.Router) bool {
		return r.Behavior.MercatorCanonical && !r.Behavior.NoUDPUnreach
	})
	if r == nil {
		t.Skip("no mercator-canonical router")
	}
	if v := res.Mercator(addrs[0], addrs[1]); v != AliasYes {
		t.Fatalf("Mercator = %v, want alias", v)
	}
}

func TestMercatorNonCanonicalUnknown(t *testing.T) {
	e, n, res := setup(t, 6)
	r, addrs := findRouter(e, n, n.VPs[0], func(r *topo.Router) bool {
		return !r.Behavior.MercatorCanonical && !r.Behavior.NoUDPUnreach
	})
	if r == nil {
		t.Skip("no non-canonical router")
	}
	if v := res.Mercator(addrs[0], addrs[1]); v != Unknown {
		t.Fatalf("Mercator = %v, want unknown", v)
	}
}

func TestGraphTransitiveClosure(t *testing.T) {
	g := NewGraph()
	g.Union(1, 2)
	g.Union(2, 3)
	if !g.SameRouter(1, 3) {
		t.Fatal("transitive closure failed")
	}
	if g.SameRouter(1, 4) {
		t.Fatal("unrelated addresses merged")
	}
}

func TestGraphNegativeBlocksUnion(t *testing.T) {
	g := NewGraph()
	g.AddNegative(1, 3)
	g.Union(1, 2)
	if ok := g.Union(2, 3); ok {
		t.Fatal("union crossing a negative pair must be refused")
	}
	if g.SameRouter(1, 3) {
		t.Fatal("negative pair ended up on one router")
	}
	if g.Conflicts() != 1 {
		t.Fatalf("conflicts = %d", g.Conflicts())
	}
}

func TestGraphNegativeAfterUnionOrder(t *testing.T) {
	// Negative added between roots after partial merging must still block.
	g := NewGraph()
	g.Union(1, 2)
	g.Union(3, 4)
	g.AddNegative(2, 4)
	if g.Union(1, 3) {
		t.Fatal("union should be blocked by negative between set members")
	}
}

func TestGraphSets(t *testing.T) {
	g := NewGraph()
	g.Union(10, 11)
	g.Union(11, 12)
	g.Union(20, 21)
	g.find(30) // singleton
	sets := g.Sets()
	if len(sets) != 2 {
		t.Fatalf("sets = %v", sets)
	}
	if len(sets[0]) != 3 || len(sets[1]) != 2 {
		t.Fatalf("set sizes wrong: %v", sets)
	}
}

func TestFromResolverRespectsNegatives(t *testing.T) {
	_, n, res := setup(t, 8)
	_ = n
	res.Record(1, 2, AliasYes)
	res.Record(2, 3, AliasYes)
	res.Record(1, 3, AliasNo)
	g := FromResolver(res)
	// 1-2 and 2-3 positive but 1-3 negative: exactly one union survives.
	if g.SameRouter(1, 3) {
		t.Fatal("negative pair merged")
	}
	merged := 0
	if g.SameRouter(1, 2) {
		merged++
	}
	if g.SameRouter(2, 3) {
		merged++
	}
	if merged != 1 {
		t.Fatalf("expected exactly one surviving union, got %d", merged)
	}
}

func TestAllyAcrossGeneratedHostRouters(t *testing.T) {
	// Property over the generated topology: Ally must never produce a
	// false positive across distinct routers (the 5-round drift test and
	// monotonicity requirement should reject coincidental alignment).
	e, n, res := setup(t, 9)
	vp := n.VPs[0]
	var pairs [][2]netx.Addr
	var owners [][2]topo.RouterID
	for _, l := range n.Links {
		if l.Kind != topo.LinkInternal || len(l.Ifaces) != 2 {
			continue
		}
		a, b := l.Ifaces[0], l.Ifaces[1]
		if a.Addr.IsZero() || b.Addr.IsZero() || !e.Reachable(vp, a.Addr) || !e.Reachable(vp, b.Addr) {
			continue
		}
		pairs = append(pairs, [2]netx.Addr{a.Addr, b.Addr})
		owners = append(owners, [2]topo.RouterID{a.Router, b.Router})
		if len(pairs) >= 12 {
			break
		}
	}
	resolve := NewResolver(e.NewLane(vp, 0), Config{})
	for i, p := range pairs {
		yes := res.Ally(p[0], p[1]) == AliasYes || resolve.Resolve(p[0], p[1]) == AliasYes
		if yes && owners[i][0] != owners[i][1] {
			t.Fatalf("false positive: %v and %v on routers %d, %d", p[0], p[1], owners[i][0], owners[i][1])
		}
	}
}

func TestFmtIDs(t *testing.T) {
	if got := fmtIDs([]uint16{1, 65535, 0}); got != "1,65535,0" {
		t.Errorf("fmtIDs = %q, want %q", got, "1,65535,0")
	}
	if got := fmtIDs(nil); got != "" {
		t.Errorf("fmtIDs(nil) = %q, want empty", got)
	}
	// An Ally event exports its samples the same way.
	tr := obs.NewTracer()
	for _, ids := range [][]uint16{{1, 65535, 0}, nil} {
		(&Resolver{Trace: tr}).emit(obs.KindAlly, 2, 1, obs.IDs(obs.KeyIPIDs, ids))
		if ev := tr.Events()[tr.Len()-1]; ev.Subject != "0.0.0.1|0.0.0.2" || ev.Attrs[0] != (obs.Attr{K: "~ipids", V: fmtIDs(ids)}) {
			t.Errorf("samples %v export as %+v", ids, ev)
		}
	}
}
