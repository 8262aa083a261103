package probe

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// timelineRun is what one side of TestEngineTimelineIsALane measured.
type timelineRun struct {
	traces []TraceResult
	resps  []Response
	end    time.Duration
	ledger Ledger
	drops  int64
}

// driveTimeline runs one fixed schedule on a fresh engine over e's world:
// an unpaced burst of traces inside one simulated second (so rate limits
// bite), a jump, paced traces with a stop callback, then direct probes of
// every method in bursts of three. With lane false the schedule goes through
// Traceroute, TracerouteLane(nil), Probe and Advance; with lane true the
// same steps run on a NewLane(0) of that engine.
func driveTimeline(base *Engine, vp *topo.VP, dsts []netx.Addr, onLane bool) timelineRun {
	e := base.Fork()
	reg := obs.New()
	e.SetObs(reg)
	var lane *Lane // nil: the engine's own timeline
	if onLane {
		lane = e.NewLane(0)
	}
	advance := func(d time.Duration) {
		if onLane {
			lane.clock += d
		} else {
			e.Advance(d)
		}
	}
	var out timelineRun
	for _, dst := range dsts {
		if onLane {
			out.traces = append(out.traces, e.traceroute(vp, dst, nil, lane))
		} else {
			out.traces = append(out.traces, e.Traceroute(vp, dst, nil))
		}
	}
	advance(90 * time.Minute)
	var stopAt netx.Addr // the first hop every trace shares
	if hops := out.traces[0].Hops; len(hops) > 0 {
		stopAt = hops[0].Addr
	}
	for _, dst := range dsts {
		out.traces = append(out.traces, e.TracerouteLane(vp, dst, func(a netx.Addr) bool { return a == stopAt && dst%2 == 0 }, lane))
	}
	for _, dst := range dsts {
		if e.Net.IfaceByAddr(dst) == nil {
			continue
		}
		for _, m := range []Method{MethodICMPEcho, MethodUDP, MethodTCPAck, MethodTTLLimited} {
			for burst := 0; burst < 3; burst++ {
				if onLane {
					out.resps = append(out.resps, e.probe(vp, dst, m, lane))
				} else {
					out.resps = append(out.resps, e.Probe(vp, dst, m))
				}
			}
			advance(PacePerHop)
		}
	}
	if out.end = e.Now(); onLane {
		out.end = lane.Now()
	}
	out.ledger = ReadLedger(reg)
	out.drops = reg.Snapshot().Counter("probe.ratelimit.drops")
	return out
}

// TestEngineTimelineIsALane: the engine's own timeline is a Lane and nothing
// else. On every builtin profile, a fresh engine driven through Traceroute,
// TracerouteLane(nil), Probe and Advance and a NewLane(0) driven through the
// same schedule agree hop for hop (address, class, IP-ID, RTT), response for
// response, on where the clock ends, on the traffic charged and on
// probe.ratelimit.drops; and the lock that makes it the engine's is still there.
func TestEngineTimelineIsALane(t *testing.T) {
	var drops int64
	for _, prof := range topo.BuiltinProfiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			if testing.Short() && prof.Name != "tiny" && prof.Name != "r&e" {
				t.Skip("-short: tiny and r&e only")
			}
			base, n := newEngine(t, prof, 1)
			vp := n.VPs[0]
			dsts := traceDsts(base, 11)
			own, lane := driveTimeline(base, vp, dsts, false), driveTimeline(base, vp, dsts, true)
			if len(own.traces) != len(lane.traces) {
				t.Fatalf("%d traces on the engine, %d on the lane", len(own.traces), len(lane.traces))
			}
			for i := range own.traces {
				if !reflect.DeepEqual(own.traces[i], lane.traces[i]) {
					t.Fatalf("trace %d toward %v:\nengine %+v\nlane   %+v", i, own.traces[i].Dst, own.traces[i], lane.traces[i])
				}
			}
			if !reflect.DeepEqual(own.resps, lane.resps) {
				for i := range own.resps {
					if own.resps[i] != lane.resps[i] {
						t.Fatalf("response %d: engine %+v, lane %+v", i, own.resps[i], lane.resps[i])
					}
				}
			}
			if len(own.resps) == 0 {
				t.Error("no direct probe was sent")
			}
			if own.end != lane.end {
				t.Errorf("the engine's clock ends at %v, the lane's at %v", own.end, lane.end)
			}
			if own.ledger != lane.ledger {
				t.Errorf("ledger %+v on the engine, %+v on the lane", own.ledger, lane.ledger)
			}
			if own.drops != lane.drops {
				t.Errorf("probe.ratelimit.drops %d on the engine, %d on the lane", own.drops, lane.drops)
			}
			drops += own.drops
		})
	}
	if drops == 0 {
		t.Error("the schedule never hit a rate limit")
	}
	t.Run("concurrent", testEngineConcurrentProbing)
}

// testEngineConcurrentProbing: one engine stays safe for concurrent use —
// two goroutines trace and probe on its timeline while a third advances it,
// under the race detector — and charges every packet exactly once.
func testEngineConcurrentProbing(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 1)
	reg := obs.New()
	e.SetObs(reg)
	vp := n.VPs[0]
	dsts := traceDsts(e, 5)

	var wg sync.WaitGroup
	sent := make([]int64, 2)
	for g := range sent {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, dst := range dsts {
				if i%2 == g {
					sent[g] += int64(len(e.TracerouteLane(vp, dst, nil, nil).Hops))
				} else {
					sent[g] += int64(len(e.Traceroute(vp, dst, nil).Hops))
				}
				e.Probe(vp, dst, MethodUDP)
				sent[g]++
			}
		}(g)
	}
	stop := make(chan struct{})
	var adv sync.WaitGroup
	adv.Add(1)
	steps := 0
	go func() {
		defer adv.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.Advance(time.Second)
				steps++
			}
		}
	}()
	wg.Wait()
	close(stop)
	adv.Wait()

	l := ReadLedger(reg)
	if want := sent[0] + sent[1]; l.PacketsSent != want {
		t.Errorf("%d packets charged, %d sent", l.PacketsSent, want)
	}
	if want := int64(4 * len(dsts)); l.Traceroutes+l.Probes != want {
		t.Errorf("%d traceroutes + %d probes charged, %d calls made", l.Traceroutes, l.Probes, want)
	}
	// Every paced trace moved the clock by its hops; the advancer by its steps.
	if got := e.Now(); got < time.Duration(steps)*time.Second {
		t.Errorf("clock at %v after %d one-second steps", got, steps)
	}
}
