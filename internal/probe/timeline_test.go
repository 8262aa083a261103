package probe

import (
	"sync"
	"testing"
	"time"

	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// TestEngineTimelineIsALane: every timeline on an engine is a Lane; the
// engine keeps no clock of its own for callers to share.
func TestEngineTimelineIsALane(t *testing.T) {
	t.Run("concurrent", testEngineConcurrentProbing)
}

// testEngineConcurrentProbing: one engine stays safe for concurrent use —
// two goroutines trace and probe, each on a lane of its own, while a third
// advances a lane of its own, under the race detector — and charges every
// packet exactly once.
func testEngineConcurrentProbing(t *testing.T) {
	e, n := newEngine(t, topo.TinyProfile(), 1)
	reg := obs.New()
	e.SetObs(reg)
	vp := n.VPs[0]
	dsts := traceDsts(e, 5)

	var wg sync.WaitGroup
	sent := make([]int64, 2)
	lanes := make([]*Lane, len(sent))
	for g := range sent {
		lanes[g] = e.NewLane(vp, 0)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lane := lanes[g]
			for _, dst := range dsts {
				sent[g] += int64(len(lane.Trace(dst, nil).Hops))
				sent[g] += int64(len(lane.Trace(dst, nil).Hops))
				lane.Probe(dst, MethodUDP)
				sent[g]++
			}
		}(g)
	}
	stop := make(chan struct{})
	var adv sync.WaitGroup
	adv.Add(1)
	steps := 0
	idle := e.NewLane(vp, 0)
	go func() {
		defer adv.Done()
		for {
			select {
			case <-stop:
				return
			default:
				idle.Advance(time.Second)
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
	if want := int64(2 * 3 * len(dsts)); l.Traceroutes+l.Probes != want {
		t.Errorf("%d traceroutes + %d probes charged, %d calls made", l.Traceroutes, l.Probes, want)
	}
	// Every paced trace moved its own lane's clock; the advancer moved only its own.
	for g, lane := range lanes {
		if lane.Now() == 0 {
			t.Errorf("lane %d: clock never moved after %d traces", g, 2*len(dsts))
		}
	}
	if got := idle.Now(); got != time.Duration(steps)*time.Second {
		t.Errorf("advancer's lane at %v after %d one-second steps", got, steps)
	}
}
