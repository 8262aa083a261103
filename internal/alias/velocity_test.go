package alias

import (
	"regexp"
	"testing"

	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

func TestVelocitySameRouter(t *testing.T) {
	e, n, res := setup(t, 21)
	r, addrs := findRouter(e, n, n.VPs[0], func(r *topo.Router) bool {
		return r.Behavior.IPID == topo.IPIDShared && !r.Behavior.NoEchoReply
	})
	if r == nil {
		t.Skip("no shared-counter router with two reachable ifaces")
	}
	res.Trace = obs.NewTracer()
	if v := res.Velocity(addrs[0], addrs[1]); v != AliasYes {
		t.Fatalf("Velocity(%v, %v) = %v, want alias", addrs[0], addrs[1], v)
	}
	// The verdict's provenance carries both fitted rates, to one decimal.
	evs := res.Trace.Events()
	if len(evs) != 1 || evs[0].Kind != "velocity" || evs[0].Attr("verdict") != "alias" ||
		!regexp.MustCompile(`^\d+\.\d,\d+\.\d$`).MatchString(evs[0].Attr("~rates")) {
		t.Fatalf("velocity provenance: %+v", evs)
	}
}

func TestVelocityDifferentRouters(t *testing.T) {
	e, n, res := setup(t, 22)
	type entry struct {
		a  netx.Addr
		id topo.RouterID
	}
	var addrs []entry
	for _, r := range n.Routers {
		if r.Behavior.IPID != topo.IPIDShared || r.Behavior.NoEchoReply {
			continue
		}
		for _, ifc := range r.Ifaces {
			if !ifc.Addr.IsZero() && e.Reachable(n.VPs[0], ifc.Addr) {
				addrs = append(addrs, entry{ifc.Addr, r.ID})
				break
			}
		}
		if len(addrs) == 4 {
			break
		}
	}
	if len(addrs) < 2 {
		t.Skip("not enough reachable shared-counter routers")
	}
	falsePos := 0
	pairs := 0
	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			pairs++
			if res.Velocity(addrs[i].a, addrs[j].a) == AliasYes {
				falsePos++
			}
		}
	}
	if falsePos > 0 {
		t.Fatalf("%d/%d false positives across routers", falsePos, pairs)
	}
}

func TestVelocityRandomIPIDUnknownOrNo(t *testing.T) {
	e, n, res := setup(t, 23)
	r, addrs := findRouter(e, n, n.VPs[0], func(r *topo.Router) bool {
		return r.Behavior.IPID == topo.IPIDRandom && !r.Behavior.NoEchoReply
	})
	if r == nil {
		t.Skip("no random-IPID router")
	}
	if v := res.Velocity(addrs[0], addrs[1]); v == AliasYes {
		t.Fatal("velocity accepted random IPIDs")
	}
}

func TestFitCounterRejectsNoise(t *testing.T) {
	// A clean 100 IDs/sec counter.
	var clean []idSample
	for i := 0; i < 8; i++ {
		clean = append(clean, idSample{t: float64(i), id: uint16(1000 + 100*i)})
	}
	if rate, ok := fitCounter(clean); !ok || rate < 90 || rate > 110 {
		t.Fatalf("clean fit: rate=%v ok=%v", rate, ok)
	}
	// Wrapping counter is fine.
	var wrap []idSample
	for i := 0; i < 8; i++ {
		wrap = append(wrap, idSample{t: float64(i), id: uint16(65400 + 100*i)})
	}
	if _, ok := fitCounter(wrap); !ok {
		t.Fatal("wrap-around rejected")
	}
	// Random garbage must be rejected.
	garbage := []idSample{{0, 40000}, {1, 100}, {2, 30000}, {3, 5}, {4, 60000}}
	if _, ok := fitCounter(garbage); ok {
		t.Fatal("garbage accepted as a counter")
	}
	// A stalled counter is rejected (velocityMinRate).
	flat := []idSample{{0, 5}, {1, 5}, {2, 5}, {3, 5}}
	if _, ok := fitCounter(flat); ok {
		t.Fatal("stalled counter accepted")
	}
}

func TestRatesClose(t *testing.T) {
	if !ratesClose(100, 110, 0.25) {
		t.Error("10% apart should be close at 25% tolerance")
	}
	if ratesClose(100, 200, 0.25) {
		t.Error("2x apart should not be close")
	}
	if ratesClose(0, 100, 0.25) || ratesClose(100, -5, 0.25) {
		t.Error("non-positive rates can never be close")
	}
}
