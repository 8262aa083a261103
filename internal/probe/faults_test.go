package probe

import (
	"fmt"
	"testing"

	"bdrmap/internal/bgp"
	"bdrmap/internal/faults"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// traceAll runs a sequential traceroute sweep on lane and serializes the
// results.
func traceAll(lane *Lane, tab *bgp.Table) string {
	out := ""
	for _, p := range tab.Prefixes() {
		res := lane.Trace(p.First()+1, nil, nil)
		out += fmt.Sprintf("%v %v %v:", res.Dst, res.Reached, res.Stopped)
		for _, h := range res.Hops {
			out += fmt.Sprintf(" %d/%d/%v/%d", h.TTL, h.Type, h.Addr, h.IPID)
		}
		out += "\n"
	}
	return out
}

func TestEngineFaultsDeterministic(t *testing.T) {
	run := func() (string, int64, int64) {
		n := topo.Generate(topo.TinyProfile(), 21)
		tab := bgp.NewTable(n)
		e := New(n, tab)
		reg := obs.New()
		e.SetObs(reg)
		e.SetFaults(faults.New(faults.Spec{Seed: 5, ProbeDrop: 0.25}))
		s := traceAll(e.NewLane(n.VPs[0], 0), tab)
		snap := reg.Snapshot()
		return s, snap.Counter("probe.faults.dropped"), snap.Counter("probe.responses")
	}
	s1, drops1, resp1 := run()
	s2, drops2, _ := run()
	if s1 != s2 {
		t.Fatal("same fault seed produced different traces")
	}
	if drops1 == 0 {
		t.Fatal("no responses dropped at probedrop=0.25")
	}
	if drops1 != drops2 {
		t.Fatalf("drop counts differ: %d vs %d", drops1, drops2)
	}

	// The fault-free run must see strictly more responses.
	n := topo.Generate(topo.TinyProfile(), 21)
	tab := bgp.NewTable(n)
	e := New(n, tab)
	reg := obs.New()
	e.SetObs(reg)
	clean := traceAll(e.NewLane(n.VPs[0], 0), tab)
	cleanResp := reg.Snapshot().Counter("probe.responses")
	if clean == s1 {
		t.Fatal("faulted run identical to fault-free run")
	}
	if cleanResp <= resp1 {
		t.Fatalf("fault-free responses %d <= faulted %d", cleanResp, resp1)
	}
}

func TestEngineFaultsStopAfterHeal(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 22)
	tab := bgp.NewTable(n)
	e := New(n, tab)
	inj := faults.New(faults.Spec{Seed: 5, ProbeDrop: 0.9, ProbeHeal: 3})
	e.SetFaults(inj)
	lane := e.NewLane(n.VPs[0], 0)
	traceAll(lane, tab) // burn through the heal budget
	if inj.ProbeDrops() != 3 {
		t.Fatalf("probe drops = %d, heal budget 3", inj.ProbeDrops())
	}
	// A healed injector must never drop again.
	before := inj.ProbeDrops()
	traceAll(lane, tab)
	if inj.ProbeDrops() != before {
		t.Fatalf("drops grew after healing: %d -> %d", before, inj.ProbeDrops())
	}
	// Direct probes also draw from the (healed) schedule without dropping.
	for _, p := range tab.Prefixes() {
		lane.Probe(p.First()+1, MethodICMPEcho)
	}
	if inj.ProbeDrops() != before {
		t.Fatal("direct probes dropped after healing")
	}
}
