package probe

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

func newEngine(t *testing.T, prof topo.Profile, seed int64) (*Engine, *topo.Network) {
	t.Helper()
	n := topo.Generate(prof, seed)
	tab := bgp.NewTable(n)
	return New(n, tab), n
}

func TestTracerouteReachesCustomers(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 1)
	lane := e.NewLane(n.VPs[0], 0)
	traced := 0
	for _, p := range e.Tab.Prefixes() {
		res := lane.Trace(p.First()+1, nil)
		if len(res.Hops) > 0 {
			traced++
		}
	}
	if traced < len(e.Tab.Prefixes())/2 {
		t.Fatalf("only %d/%d prefixes produced hops", traced, len(e.Tab.Prefixes()))
	}
}

func TestTracerouteFirstHopIsHostNetwork(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 2)
	lane := e.NewLane(n.VPs[0], 0)
	host := n.ASes[n.HostASN]
	for _, p := range e.Tab.Prefixes()[:10] {
		res := lane.Trace(p.First()+1, nil)
		if len(res.Hops) == 0 || res.Hops[0].Type != HopTimeExceeded {
			continue
		}
		a := res.Hops[0].Addr
		if !host.Infra.Contains(a) && n.OwnerOfAddr(a) != n.HostASN {
			// The first hop may be in the unannounced host block.
			org, _ := orgOfAddr(n, a)
			if org != "org-host" {
				t.Fatalf("first hop %v not in host network (dst %v)", a, res.Dst)
			}
		}
	}
}

func orgOfAddr(n *topo.Network, a netx.Addr) (string, bool) {
	for _, d := range n.Delegations {
		if d.Prefix.Contains(a) {
			return d.OrgID, true
		}
	}
	return "", false
}

func TestHopAddressesAreRealInterfacesOrDst(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 3)
	lane := e.NewLane(n.VPs[0], 0)
	for _, p := range e.Tab.Prefixes() {
		res := lane.Trace(p.First()+1, nil)
		for _, h := range res.Hops {
			if h.Type == HopTimeout {
				continue
			}
			if h.Type == HopEchoReply {
				if h.Addr != res.Dst {
					t.Fatalf("echo reply source %v != dst %v", h.Addr, res.Dst)
				}
				continue
			}
			if n.IfaceByAddr(h.Addr) == nil {
				t.Fatalf("hop %v is not a real interface (dst %v)", h.Addr, res.Dst)
			}
		}
	}
}

func TestStopSetHaltsTrace(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 4)
	lane := e.NewLane(n.VPs[0], 0)
	var full TraceResult
	var dst netx.Addr
	for _, p := range e.Tab.Prefixes() {
		r := lane.Trace(p.First()+1, nil)
		if len(r.Hops) >= 3 && r.Hops[1].Type == HopTimeExceeded {
			full, dst = r, p.First()+1
			break
		}
	}
	if dst.IsZero() {
		t.Skip("no suitable trace found")
	}
	stopAddr := full.Hops[1].Addr
	res := lane.Trace(dst, map[netx.Addr]bool{stopAddr: true})
	if !res.Stopped {
		t.Fatal("trace did not report stopping")
	}
	if got := len(res.Hops); got != 2 {
		t.Fatalf("stopped trace has %d hops, want 2", got)
	}
}

// TestRepeatsMatchesLaneTrace holds the replay predicate to the walk it
// stands in for. On tiny, r&e, remote-peering and enterprise, each routed
// prefix's trace is recorded under every stop set drawn from its own hops
// — none, each responding address alone (the destination's reply
// included), and the first and last together — and then asked, under
// every one of those sets, whether a walk would record it again. Repeats
// must say yes iff Lane.Trace under that set returns the same hops (TTL,
// type, address) and the same Stopped flag. Each walk starts a second
// after the last, in a fresh rate-limit window.
func TestRepeatsMatchesLaneTrace(t *testing.T) {
	for _, prof := range []topo.Profile{topo.TinyProfile(), topo.REProfile(), topo.RemotePeeringProfile(), topo.EnterpriseProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			e, n := newEngine(t, prof, 1)
			lane := e.NewLane(n.VPs[0], 0)
			walk := func(dst netx.Addr, stop map[netx.Addr]bool) TraceResult {
				lane.Advance(time.Second)
				return lane.Trace(dst, stop)
			}
			var yes, no, atReply int
			for _, p := range e.Tab.Prefixes() {
				dst := p.First() + 1
				full := walk(dst, nil)
				stops := []map[netx.Addr]bool{nil}
				var addrs []netx.Addr
				for _, h := range full.Hops {
					if !h.Addr.IsZero() {
						addrs = append(addrs, h.Addr)
						stops = append(stops, map[netx.Addr]bool{h.Addr: true})
					}
				}
				if len(addrs) > 1 {
					stops = append(stops, map[netx.Addr]bool{addrs[0]: true, addrs[len(addrs)-1]: true})
				}
				for _, from := range stops {
					rec := walk(dst, from)
					for _, under := range stops {
						got := walk(dst, under)
						same := rec.Stopped == got.Stopped && len(rec.Hops) == len(got.Hops)
						for i := 0; same && i < len(rec.Hops); i++ {
							a, b := rec.Hops[i], got.Hops[i]
							same = a.TTL == b.TTL && a.Type == b.Type && a.Addr == b.Addr
						}
						if rec.Repeats(under) != same {
							t.Fatalf("trace to %v recorded under %v: Repeats(%v) = %t, but a walk under it returns the same trace: %t",
								dst, from, under, !same, same)
						}
						if !same {
							no++
							continue
						}
						yes++
						if n := len(rec.Hops); n > 0 && rec.Hops[n-1].Type != HopTimeExceeded && under[rec.Hops[n-1].Addr] {
							atReply++
						}
					}
				}
			}
			if yes == 0 || no == 0 || atReply == 0 {
				t.Fatalf("%d repeats, %d not, %d with the reply's address in the stop set: a case went untested", yes, no, atReply)
			}
			t.Logf("%d repeats (%d with the reply's address in the stop set), %d not", yes, atReply, no)
		})
	}
}

func TestFirewallTruncatesTrace(t *testing.T) {
	// Find a customer whose border firewalls probes: traceroute toward it
	// must never reveal an address inside the customer's announced space.
	e, n := newEngine(t, topo.LargeAccessProfile(), 5)
	lane := e.NewLane(n.VPs[0], 0)
	host := n.ASes[n.HostASN]
	checked := 0
	for _, nb := range host.Neighbors() {
		if nb.Rel != topo.RelCustomer {
			continue
		}
		cust := n.ASes[nb.ASN]
		borderFirewalled := false
		for _, r := range cust.Routers {
			if r.Name == "bdr1" && r.Behavior.FirewallEdge && !r.Behavior.NoTTLExpired {
				borderFirewalled = true
			}
		}
		if !borderFirewalled || len(cust.Prefixes) == 0 {
			continue
		}
		res := lane.Trace(cust.Prefixes[0].First()+1, nil)
		for _, h := range res.Hops {
			if h.Type == HopTimeExceeded && cust.Prefixes[0].Contains(h.Addr) {
				t.Fatalf("firewalled customer %v leaked interior address %v", cust.ASN, h.Addr)
			}
		}
		checked++
		if checked >= 10 {
			break
		}
	}
	if checked == 0 {
		t.Skip("no firewalled customers in this seed")
	}
}

func TestSilentNeighborInvisible(t *testing.T) {
	e, n := newEngine(t, topo.LargeAccessProfile(), 5)
	lane := e.NewLane(n.VPs[0], 0)
	host := n.ASes[n.HostASN]
	checked := false
	for _, nb := range host.Neighbors() {
		cust := n.ASes[nb.ASN]
		if nb.Rel != topo.RelCustomer || len(cust.Routers) == 0 {
			continue
		}
		silent := true
		for _, r := range cust.Routers {
			if !r.Behavior.NoTTLExpired || !r.Behavior.NoEchoReply {
				silent = false
			}
		}
		if !silent {
			continue
		}
		res := lane.Trace(cust.Prefixes[0].First()+1, nil)
		for _, h := range res.Hops {
			if h.Addr != 0 && n.OwnerOfAddr(h.Addr) == cust.ASN {
				t.Fatalf("silent neighbor %v responded at %v", cust.ASN, h.Addr)
			}
		}
		checked = true
	}
	if !checked {
		t.Skip("no fully silent customers in this seed")
	}
}

func TestEchoReplyFromAnchoredPrefix(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 6)
	lane := e.NewLane(n.VPs[0], 0)
	reached := 0
	for _, p := range e.Tab.Prefixes() {
		res := lane.Trace(p.First()+7, nil)
		if res.Reached {
			reached++
			last := res.Hops[len(res.Hops)-1]
			if last.Type != HopEchoReply || last.Addr != p.First()+7 {
				t.Fatalf("reached trace should end with echo reply from dst")
			}
		}
	}
	if reached == 0 {
		t.Fatal("no destination ever replied")
	}
}

func TestProbeMercatorCanonical(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 7)
	vp := n.VPs[0]
	lane := e.NewLane(vp, 0)
	// Find a reachable router with MercatorCanonical and two interfaces.
	for _, r := range n.Routers {
		if !r.Behavior.MercatorCanonical || r.Behavior.NoUDPUnreach || len(r.Ifaces) < 2 {
			continue
		}
		a1, a2 := r.Ifaces[0].Addr, r.Ifaces[1].Addr
		if a1.IsZero() || a2.IsZero() || !e.Reachable(vp, a1) || !e.Reachable(vp, a2) {
			continue
		}
		r1 := lane.Probe(a1, MethodUDP)
		r2 := lane.Probe(a2, MethodUDP)
		if !r1.OK || !r2.OK {
			continue
		}
		if r1.From != r2.From {
			t.Fatalf("mercator sources differ: %v vs %v", r1.From, r2.From)
		}
		return
	}
	t.Skip("no suitable router found")
}

func TestSharedIPIDMonotonic(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 8)
	vp := n.VPs[0]
	lane := e.NewLane(vp, 0)
	for _, r := range n.Routers {
		if r.Behavior.IPID != topo.IPIDShared || len(r.Ifaces) == 0 {
			continue
		}
		a := r.Ifaces[0].Addr
		if a.IsZero() || !e.Reachable(vp, a) || r.Behavior.NoEchoReply {
			continue
		}
		var prev uint16
		okCount := 0
		for i := 0; i < 10; i++ {
			resp := lane.Probe(a, MethodICMPEcho)
			if !resp.OK {
				break
			}
			if okCount > 0 {
				diff := resp.IPID - prev // uint16 wrap-around safe
				if diff == 0 || diff > 1000 {
					t.Fatalf("shared counter not monotonically increasing: %d -> %d", prev, resp.IPID)
				}
			}
			prev = resp.IPID
			okCount++
			lane.Advance(10 * time.Millisecond)
		}
		if okCount == 10 {
			return
		}
	}
	t.Skip("no reachable shared-counter router")
}

func TestIPIDAdvancesWithTime(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 9)
	vp := n.VPs[0]
	lane := e.NewLane(vp, 0)
	for _, r := range n.Routers {
		if r.Behavior.IPID != topo.IPIDShared || len(r.Ifaces) == 0 || r.Behavior.NoEchoReply {
			continue
		}
		a := r.Ifaces[0].Addr
		if a.IsZero() || !e.Reachable(vp, a) {
			continue
		}
		r1 := lane.Probe(a, MethodICMPEcho)
		lane.Advance(60 * time.Second)
		r2 := lane.Probe(a, MethodICMPEcho)
		if !r1.OK || !r2.OK {
			continue
		}
		if r2.IPID-r1.IPID < 100 {
			t.Fatalf("background traffic did not advance counter: %d -> %d", r1.IPID, r2.IPID)
		}
		return
	}
	t.Skip("no reachable shared-counter router")
}

func TestRandomIPIDNotMonotonic(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 10)
	vp := n.VPs[0]
	lane := e.NewLane(vp, 0)
	for _, r := range n.Routers {
		if r.Behavior.IPID != topo.IPIDRandom || len(r.Ifaces) == 0 || r.Behavior.NoEchoReply {
			continue
		}
		a := r.Ifaces[0].Addr
		if a.IsZero() || !e.Reachable(vp, a) {
			continue
		}
		increasingRuns := 0
		var prev uint16
		for i := 0; i < 30; i++ {
			resp := lane.Probe(a, MethodICMPEcho)
			if !resp.OK {
				break
			}
			if i > 0 && resp.IPID-prev < 1000 {
				increasingRuns++
			}
			prev = resp.IPID
		}
		if increasingRuns > 25 {
			t.Fatalf("random IPID looked like a shared counter (%d/30 small increments)", increasingRuns)
		}
		return
	}
	t.Skip("no reachable random-IPID router")
}

func TestRateLimiting(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 11)
	vp := n.VPs[0]
	lane := e.NewLane(vp, 0)
	// Force a rate limit on the first responding router.
	var target netx.Addr
	var router *topo.Router
	for _, r := range n.Routers {
		if len(r.Ifaces) == 0 || r.Behavior.NoEchoReply {
			continue
		}
		a := r.Ifaces[0].Addr
		if !a.IsZero() && e.Reachable(vp, a) {
			target, router = a, r
			break
		}
	}
	if router == nil {
		t.Skip("no reachable router")
	}
	router.Behavior.RateLimitPPS = 3
	got := 0
	for i := 0; i < 10; i++ {
		if lane.Probe(target, MethodICMPEcho).OK {
			got++
		}
	}
	if got != 3 {
		t.Fatalf("rate limit allowed %d responses, want 3", got)
	}
	lane.Advance(time.Second)
	if !lane.Probe(target, MethodICMPEcho).OK {
		t.Fatal("rate limit did not reset after a second")
	}
}

func TestStatsAccumulate(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 12)
	reg := obs.New()
	e.SetObs(reg)
	lane := e.NewLane(n.VPs[0], 0)
	lane.Trace(e.Tab.Prefixes()[0].First()+1, nil)
	s := ReadLedger(reg)
	if s.Traceroutes != 1 || s.PacketsSent == 0 {
		t.Fatalf("ledger = %+v", s)
	}
}

// TestCachedPathsImmutableUnderConcurrentProbing hammers one engine with
// 10 000 mixed Probe/Trace calls on 4 lanes from 4 goroutines — hits on
// walks cached beforehand and racing misses on the rest — and requires every
// previously cached pathResult to be the same object with the same
// contents afterwards, and each lane's results to equal the same lane's run
// alone. Run under -race it also checks the plane's locking.
func TestCachedPathsImmutableUnderConcurrentProbing(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 1)
	reg := obs.New()
	e.SetObs(reg)
	vp := n.VPs[0]
	var dsts []netx.Addr
	for _, p := range e.Tab.Prefixes() {
		dsts = append(dsts, p.First()+1)
	}
	for _, r := range n.Routers {
		for _, ifc := range r.Ifaces {
			dsts = append(dsts, ifc.Addr)
		}
	}
	// Cache every other destination's walk and keep a deep copy.
	type snap struct {
		p    *pathResult
		copy pathResult
	}
	var snaps []snap
	for i := 0; i < len(dsts); i += 2 {
		p := e.computePath(vp.Router, dsts[i])
		c := *p
		c.steps = append([]pathStep(nil), p.steps...)
		snaps = append(snaps, snap{p, c})
	}

	// Each goroutine probes on a lane of its own; the same lanes run one
	// after another on a fresh fork must see the same responses.
	type result struct {
		traces []TraceResult
		resps  []Response
	}
	drive := func(e *Engine, g int) result {
		var out result
		lane := e.NewLane(vp, 0)
		for i := 0; i < 2500; i++ {
			dst := dsts[(i*7+g*13)%len(dsts)]
			switch i % 3 {
			case 0:
				out.traces = append(out.traces, lane.Trace(dst, nil))
			case 1:
				out.resps = append(out.resps, lane.Probe(dst, MethodTTLLimited))
			default:
				out.resps = append(out.resps, lane.Probe(dst, MethodUDP))
			}
		}
		return out
	}
	got := make([]result, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = drive(e, g)
		}(g)
	}
	wg.Wait()
	seq := e.Fork()
	for g := range got {
		if want := drive(seq, g); !reflect.DeepEqual(got[g], want) {
			t.Errorf("lane %d: probing beside three other lanes differs from probing alone", g)
		}
	}

	for i, s := range snaps {
		dst := dsts[2*i]
		if got := e.computePath(vp.Router, dst); got != s.p {
			t.Fatalf("dst %v: the cached walk was replaced", dst)
		}
		if !samePath(s.p, &s.copy) {
			t.Fatalf("dst %v: cached walk changed: %+v, was %+v", dst, *s.p, s.copy)
		}
	}
	if st := ReadLedger(reg); st.Traceroutes+st.Probes != 10000 {
		t.Fatalf("counted %d traceroutes + %d probes, want 10000 calls", st.Traceroutes, st.Probes)
	}
}
