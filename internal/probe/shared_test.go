package probe

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// traceDsts returns what a driver would trace on e's world — the first
// address of every routed prefix — and every stride-th interface address.
func traceDsts(e *Engine, stride int) []netx.Addr {
	var dsts []netx.Addr
	for _, p := range e.Tab.Prefixes() {
		dsts = append(dsts, p.First()+1)
	}
	k := 0
	for _, r := range e.Net.Routers {
		for _, ifc := range r.Ifaces {
			if k++; k%stride == 0 {
				dsts = append(dsts, ifc.Addr)
			}
		}
	}
	return dsts
}

// checkHopRTTs compares every answered hop res probed against the oracle:
// the whole prefix of the walk summed again by pathRTT at time at, when the
// walk started. The hops a walk copied from its prior keep the prior's RTTs
// and are skipped.
func checkHopRTTs(t *testing.T, e *Engine, vp *topo.VP, res TraceResult, at time.Duration) (queued int) {
	t.Helper()
	steps := e.pathSteps(vp.Router, res.Dst)
	for _, h := range res.Hops[res.Spliced:] {
		if h.Type == HopTimeout {
			continue
		}
		want := e.pathRTT(steps[:h.TTL], at)
		if h.RTT != want {
			t.Fatalf("%s → %v ttl %d at %v: RTT %v, pathRTT over the first %d steps gives %v", vp.Name, res.Dst, h.TTL, at, h.RTT, h.TTL, want)
		}
		for i := 0; i+1 < int(h.TTL); i++ {
			if l := steps[i].out; l != nil && e.queueDelay(l.Link, at) > 0 {
				queued++
				break
			}
		}
	}
	return queued
}

// TestRunningRTTMatchesPathRTT is the O(hops) traceroute's oracle: on every
// built-in profile each hop's RTT equals pathRTT over the walk so far at the
// lane's clock when the walk started — on lanes with no congestion, on lanes
// whose time of day falls before, inside and after episodes injected on the
// traced links, and for the live hops of walks resumed from a prior, whose
// running sum starts at the resume TTL and steps backward. Throughout the
// first part, another goroutine publishes and clears episode slices that
// add no delay, so the lock-free read in queueDelay is exercised under the
// race detector.
func TestRunningRTTMatchesPathRTT(t *testing.T) {
	for _, prof := range topo.BuiltinProfiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			if testing.Short() && prof.Name != "tiny" && prof.Name != "r&e" {
				t.Skip("-short: tiny and r&e only")
			}
			e, n := newEngine(t, prof, 1)
			vp := n.VPs[0]
			dsts := traceDsts(e, 7)

			stopNoise := make(chan struct{})
			var noise sync.WaitGroup
			noise.Add(1)
			go func() {
				defer noise.Done()
				idle := &topo.Link{} // on no path
				for i := 0; ; i++ {
					select {
					case <-stopNoise:
						return
					default:
						runtime.Gosched()
					}
					if i%8 == 7 {
						e.ClearCongestion()
					} else {
						e.InjectCongestion(CongestionEpisode{Link: idle, End: 24 * time.Hour, Queue: time.Millisecond})
					}
				}
			}()

			// Lanes, nothing congested.
			lane := e.NewLane(vp, 0)
			answered := 0
			var fulls []TraceResult
			for _, dst := range dsts {
				at := lane.Now()
				res := lane.Trace(dst, nil, nil)
				checkHopRTTs(t, e, vp, res, at)
				answered += len(res.Hops)
				fulls = append(fulls, res)
			}
			if answered == 0 {
				t.Fatal("no trace answered")
			}
			close(stopNoise)
			noise.Wait()
			e.ClearCongestion()

			// Episodes on every interdomain link the traces cross, open from
			// 01:00 to 02:00 of the simulated day; lanes start before, inside
			// and after the window.
			seen := make(map[*topo.Link]bool)
			for _, dst := range dsts {
				for _, st := range e.pathSteps(vp.Router, dst) {
					if st.out != nil && st.out.Link != nil && !seen[st.out.Link] && len(seen) < 64 {
						seen[st.out.Link] = true
						e.InjectCongestion(CongestionEpisode{Link: st.out.Link, Start: time.Hour, End: 2 * time.Hour, Queue: 3 * time.Millisecond})
					}
				}
			}
			for _, tc := range []struct {
				start  time.Duration
				inside bool
			}{{0, false}, {90 * time.Minute, true}, {25*time.Hour + 30*time.Minute, true}, {3 * time.Hour, false}} {
				lane := e.NewLane(vp, tc.start)
				queued := 0
				for _, dst := range dsts {
					at := lane.Now()
					queued += checkHopRTTs(t, e, vp, lane.Trace(dst, nil, nil), at)
				}
				if (queued > 0) != tc.inside {
					t.Errorf("lane from %v to %v: %d hops crossed a congested link, want some: %t", tc.start, lane.Now(), queued, tc.inside)
				}
			}

			// Walks resumed inside the window from each uncongested trace
			// cut before its last hop: the live hops are priced at the
			// resumed walk's start, not the prior's.
			lane = e.NewLane(vp, 90*time.Minute)
			spliced, queued := 0, 0
			for i, dst := range dsts {
				prior := fulls[i].Hops[:max(len(fulls[i].Hops)-1, 0)]
				at := lane.Now()
				res := lane.Trace(dst, nil, prior)
				queued += checkHopRTTs(t, e, vp, res, at)
				spliced += int(res.Spliced)
			}
			if spliced == 0 || queued == 0 {
				t.Errorf("resumed walks copied %d hops and probed %d across a congested link: want both", spliced, queued)
			}
		})
	}
}

// probed is everything one vantage point's measurement returns.
type probed struct {
	traces []TraceResult
	resps  []Response
	ledger Ledger
}

// measure runs a fixed schedule from vp on one lane of e: traceroutes
// toward dsts, then direct probes of every method to the interface addresses
// among them. The engine charges a registry of its own.
func measure(e *Engine, vp *topo.VP, dsts []netx.Addr) probed {
	var out probed
	reg := obs.New()
	e.SetObs(reg)
	lane := e.NewLane(vp, 0)
	for _, dst := range dsts {
		out.traces = append(out.traces, lane.Trace(dst, nil, nil))
	}
	for _, dst := range dsts {
		if e.Net.IfaceByAddr(dst) == nil {
			continue
		}
		for _, m := range []Method{MethodICMPEcho, MethodUDP, MethodTCPAck, MethodTTLLimited} {
			out.resps = append(out.resps, lane.Probe(dst, m))
			lane.Advance(PacePerHop)
		}
	}
	out.ledger = ReadLedger(reg)
	return out
}

// TestForkedPlaneShardsAgree: engines forked from one plane, measuring at
// once from different vantage points — each filling the shared tables the
// others read — return the TraceResults and Responses, and charge their
// registries the traffic, that fresh engines built by New do measuring alone.
func TestForkedPlaneShardsAgree(t *testing.T) {
	for _, prof := range []topo.Profile{topo.TinyProfile(), topo.REProfile(), topo.RegionalVPProfile()} {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			if prof.NumVPs < 4 {
				prof.NumVPs = 4
			}
			base, n := newEngine(t, prof, 1)
			baseReg := obs.New()
			base.SetObs(baseReg)
			dsts := traceDsts(base, 5)
			vps := n.VPs
			if len(vps) > 6 {
				vps = vps[:6]
			}

			got := make([]probed, len(vps))
			var wg sync.WaitGroup
			for i, vp := range vps {
				wg.Add(1)
				go func(i int, vp *topo.VP) {
					defer wg.Done()
					got[i] = measure(base.Fork(), vp, dsts)
				}(i, vp)
			}
			wg.Wait()

			for i, vp := range vps {
				want := measure(New(n, base.Tab), vp, dsts)
				if !reflect.DeepEqual(got[i].traces, want.traces) {
					t.Errorf("%s: traces on a forked plane differ from a fresh engine's", vp.Name)
				}
				if !reflect.DeepEqual(got[i].resps, want.resps) {
					t.Errorf("%s: probe responses on a forked plane differ from a fresh engine's", vp.Name)
				}
				if got[i].ledger != want.ledger {
					t.Errorf("%s: ledger %+v on a forked plane, %+v on a fresh engine", vp.Name, got[i].ledger, want.ledger)
				}
			}
			if l := ReadLedger(baseReg); l != (Ledger{}) {
				t.Errorf("forks charged the engine they were forked from: %+v", l)
			}
		})
	}
}
