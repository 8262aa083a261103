package probe

import (
	"math/rand"
	"testing"
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// TestDenseLaneStateMatchesMaps holds a lane's dense per-router state to the
// map-per-router lane it replaced (mapLane): on tiny, r&e and large-access,
// seeded bursts of responses from every router — through each of its
// interfaces and through none, the clock stepping a millisecond at a time
// inside a burst and jumping up to three seconds between bursts — are
// allowed or refused alike and draw the same IP-IDs. Half the bursts go to
// rate-limited routers, long enough to exhaust their budgets.
func TestDenseLaneStateMatchesMaps(t *testing.T) {
	for _, prof := range []topo.Profile{topo.TinyProfile(), topo.REProfile(), topo.LargeAccessProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			n := topo.Generate(prof, 1)
			var limited []*topo.Router
			for _, r := range n.Routers {
				if r.Behavior.RateLimitPPS > 0 {
					limited = append(limited, r)
				}
			}
			if len(limited) == 0 {
				t.Fatal("no router is rate-limited")
			}
			lane, ref := New(n, nil).NewLane(n.VPs[0], 0), newMapLane()
			rng := rand.New(rand.NewSource(1))
			var drawn [topo.IPIDZero + 1]int
			refused := 0
			for burst := 0; burst < 2*len(n.Routers); burst++ {
				r, size := n.Routers[rng.Intn(len(n.Routers))], 1+rng.Intn(100)
				if burst%2 == 1 {
					r, size = limited[rng.Intn(len(limited))], 1+rng.Intn(400)
				}
				lane.clock += time.Duration(rng.Int63n(int64(3 * time.Second)))
				for i := 0; i < size; i++ {
					lane.clock += time.Duration(rng.Intn(2)) * time.Millisecond
					var ifc *topo.Iface
					if k := rng.Intn(len(r.Ifaces) + 1); k < len(r.Ifaces) {
						ifc = r.Ifaces[k]
					}
					ok := lane.allow(r)
					if want := ref.allow(r, lane.clock); ok != want {
						t.Fatalf("router %d at %v: allowed %t, the map lane says %t", r.ID, lane.clock, ok, want)
					}
					if !ok {
						refused++
						continue
					}
					if got, want := lane.nextIPID(r, ifc), ref.nextIPID(r, ifc, lane.clock); got != want {
						t.Fatalf("router %d (%v) at %v: IP-ID %d, the map lane draws %d", r.ID, r.Behavior.IPID, lane.clock, got, want)
					}
					drawn[r.Behavior.IPID]++
				}
			}
			if refused == 0 {
				t.Error("no rate limit refused a response")
			}
			for mode, k := range drawn {
				if k == 0 {
					t.Errorf("no response drawn from a %v router", topo.IPIDMode(mode))
				}
			}
		})
	}
}

// TestLaneTargetMatchesPerPacketWalk holds probe, which resolves a target
// once and keeps the lane's last two, to probeOracle, which looks the walk
// up and sums the RTT link by link for every packet. On tiny, r&e and
// regional-vp, two vantage points probe interface addresses, addresses no
// interface holds, and one nothing routes, by every method, in a seeded
// schedule that mostly revisits the last three addresses — so the lane's
// two slots hit, miss and evict in every order. The schedule runs once with
// no congestion and once with episodes on every probed link whose window
// the lanes' clocks enter and leave. Every Response and the traffic charged
// must be equal.
func TestLaneTargetMatchesPerPacketWalk(t *testing.T) {
	for _, prof := range []topo.Profile{topo.TinyProfile(), topo.REProfile(), topo.RegionalVPProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			prof.NumVPs = max(prof.NumVPs, 2)
			base, n := newEngine(t, prof, 1)
			vps := n.VPs[:2]
			pool := []netx.Addr{0}
			for _, p := range base.Tab.Prefixes()[:20] {
				pool = append(pool, p.First()+1)
			}
			k := 0
			for _, r := range n.Routers {
				for _, ifc := range r.Ifaces {
					if k++; k%3 == 0 {
						pool = append(pool, ifc.Addr)
					}
				}
			}

			fast, slow := base.Fork(), base.Fork()
			fastReg, slowReg := obs.New(), obs.New()
			fast.SetObs(fastReg)
			slow.SetObs(slowReg)
			fastLane, slowLane := fast.NewLane(vps[0], 0), slow.NewLane(vps[0], 0)
			rng := rand.New(rand.NewSource(1))
			recent := []netx.Addr{pool[1], pool[2], pool[3]}
			answered, queued := 0, 0
			run := func(start time.Duration, steps int) {
				fastLane.clock, slowLane.clock = start, start
				for i := 0; i < steps; i++ {
					addr := recent[rng.Intn(len(recent))]
					if rng.Intn(5) == 0 {
						addr = pool[rng.Intn(len(pool))]
						recent = append(recent[1:], addr)
					}
					vp := vps[rng.Intn(8)/7] // mostly the first
					m := Method(rng.Intn(int(MethodTTLLimited) + 1))
					got, want := fast.probe(vp, addr, m, fastLane), slow.probeOracle(vp, addr, m, slowLane)
					if got != want {
						t.Fatalf("step %d: %s probing %v by %v: %+v, per packet %+v", i, vp.Name, addr, m, got, want)
					}
					if got.OK {
						answered++
						if slow.queueDelays(slow.computePath(vp.Router, addr).steps, got.When) > 0 {
							queued++
						}
					}
					d := time.Duration(rng.Intn(40)) * time.Millisecond
					fastLane.clock += d
					slowLane.clock += d
				}
			}
			run(0, 4000)
			for _, addr := range pool {
				for _, st := range base.computePath(vps[0].Router, addr).steps {
					if st.out != nil && st.out.Link != nil {
						ep := CongestionEpisode{Link: st.out.Link, Start: time.Hour, End: time.Hour + time.Minute, Queue: 3 * time.Millisecond}
						fast.InjectCongestion(ep)
						slow.InjectCongestion(ep)
					}
				}
			}
			run(time.Hour-30*time.Second, 6000)
			if fl, sl := ReadLedger(fastReg), ReadLedger(slowReg); fl != sl {
				t.Errorf("ledger %+v, per packet %+v", fl, sl)
			}
			if answered == 0 || queued == 0 {
				t.Errorf("%d responses, %d of them queued: the schedule tested too little", answered, queued)
			}
		})
	}
}

// TestLaneKeepsTheLastTwoTargets: a lane's two target slots hold the two
// addresses it probed last, so the probes of one pair resolve two targets
// however they interleave, and a third address replaces whichever of the two
// was probed longer ago.
func TestLaneKeepsTheLastTwoTargets(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 1)
	vp := n.VPs[0]
	var addrs []netx.Addr
	for _, r := range n.Routers {
		for _, ifc := range r.Ifaces {
			if len(addrs) < 3 && e.Reachable(vp, ifc.Addr) {
				addrs = append(addrs, ifc.Addr)
			}
		}
	}
	if len(addrs) < 3 {
		t.Fatal("fewer than three reachable interfaces")
	}
	a, b, c := addrs[0], addrs[1], addrs[2]
	lane := e.NewLane(vp, 0)
	for i, step := range []struct {
		addr netx.Addr
		held [2]netx.Addr // in either order
	}{
		{a, [2]netx.Addr{a, 0}}, {b, [2]netx.Addr{a, b}}, {a, [2]netx.Addr{a, b}},
		{c, [2]netx.Addr{a, c}}, {a, [2]netx.Addr{a, c}}, {b, [2]netx.Addr{a, b}},
		{b, [2]netx.Addr{a, b}}, {c, [2]netx.Addr{b, c}},
	} {
		if got := lane.target(vp.Router, step.addr); got.addr != step.addr || got.r == nil {
			t.Fatalf("step %d: probing %v resolved %+v", i, step.addr, *got)
		}
		got := [2]netx.Addr{lane.targets[0].addr, lane.targets[1].addr}
		if got != step.held && got != [2]netx.Addr{step.held[1], step.held[0]} {
			t.Errorf("step %d: after %v the lane holds %v, want %v", i, step.addr, got, step.held)
		}
	}
}
