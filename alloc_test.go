package bdrmap

import (
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// Alloc-budget tests: allocation regressions on the inference hot path
// fail `go test` here instead of only drifting benchmark numbers. The
// budgets are ceilings over today's steady-state counts (see t.Logf
// output) with headroom for incidental churn — a per-node map or
// per-claim string concat sneaking back in blows well past them.

// vpInputs measures the first vps VPs of prof and returns each one's
// inference input, with a provenance tracer attached. With churn, the same VPs' inputs follow, measured again after
// a customer is attached at a host border: the next round's world.
func vpInputs(t *testing.T, prof topo.Profile, vps int, churn bool) []core.Input {
	prof.NumVPs = vps
	n := topo.Generate(prof, 1)
	var ins []core.Input
	measure := func() {
		s := eval.BuildFromNetwork(n, 1)
		for i := range vps {
			s.RunVP(i, scamper.Config{Workers: 1})
			ins = append(ins, core.Input{
				Data: s.Datasets[i], View: s.View, Rel: s.Rel, RIR: s.RIR, IXP: s.IXP,
				HostASN: s.Net.HostASN, Siblings: s.Sibs, Trace: obs.NewTracer(),
			})
		}
	}
	measure()
	if churn {
		if _, err := topo.AttachCustomer(n, n.InterdomainLinks(n.HostASN)[0].NearRtr, 65001); err != nil {
			t.Fatal(err)
		}
		n.Build()
		measure()
	}
	return ins
}

// TestInferAllocBudget pins the per-claim allocation cost of a
// steady-state inference (warm arena) — with the tracer on, as every
// scenario runs: a decision's provenance is stated in typed fields that
// stay on claim's stack, so it costs a share of a log chunk and nothing per
// claim. Sequential inferences share the one arena core.Infer's free list
// lends them, which a first pass over the inputs warms. On tiny one VP's
// dataset is inferred again and again; on large-access the four VP
// datasets of a cold map are inferred in turn, as a fleet worker runs
// them, so the per-address table and the tally storage must live in the
// arena for the much larger graphs to cost no more per claim. On r&e the
// arena crosses worlds, as it does from round to round: the VP's dataset
// before and after a customer is attached are inferred in turn, each on
// the slabs the other world's graph left.
func TestInferAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		prof  topo.Profile
		vps   int
		churn bool
	}{{topo.TinyProfile(), 1, false}, {topo.LargeAccessProfile(), 4, false}, {topo.REProfile(), 1, true}} {
		t.Run(tc.prof.Name, func(t *testing.T) {
			ins := vpInputs(t, tc.prof, tc.vps, tc.churn)
			claims := 0
			for _, in := range ins {
				for _, rn := range core.Infer(in).Routers { // warms the arena
					if rn.Owner != 0 {
						claims++
					}
				}
			}
			if claims == 0 {
				t.Fatal("no routers attributed")
			}
			allocs := testing.AllocsPerRun(5, func() {
				for _, in := range ins {
					core.Infer(in)
				}
			})
			perClaim := allocs / float64(claims)
			t.Logf("steady-state: %.0f allocs/run over %d claims = %.2f allocs/claim", allocs, claims, perClaim)
			// Steady state measures ≈5.4 allocs per claimed router on tiny,
			// ≈3.6 on large-access and ≈4.5 on r&e across its churn,
			// nearly all in result assembly
			// (RouterNode, its address slice, link records) and the
			// per-inference intern table; the claim itself, provenance
			// event included, is allocation-free.
			const budget = 9.0
			if perClaim > budget {
				t.Errorf("inference allocates %.2f allocs per claim, budget %.1f", perClaim, budget)
			}
		})
	}
}

// TestProbeHitPathAllocFree pins the forwarding plane's contract on the
// alias-resolution hot path: once a target's walk is memoised, a repeated
// Lane.Probe to it — Ally spends ≈40 on a pair — allocates nothing.
func TestProbeHitPathAllocFree(t *testing.T) {
	s := eval.Build(topo.TinyProfile(), 1)
	lane := s.Engine.NewLane(s.Net.VPs[0], 0)
	for _, r := range s.Net.Routers {
		for _, ifc := range r.Ifaces {
			if !lane.Probe(ifc.Addr, probe.MethodUDP).OK {
				continue
			}
			for _, m := range []probe.Method{probe.MethodUDP, probe.MethodICMPEcho, probe.MethodTTLLimited} {
				if allocs := testing.AllocsPerRun(100, func() { lane.Probe(ifc.Addr, m) }); allocs != 0 {
					t.Errorf("repeated %v probe to %v allocates %.1f times per call, want 0", m, ifc.Addr, allocs)
				}
			}
			return
		}
	}
	t.Fatal("no interface answers probes")
}

// TestTracerouteAllocBudget pins what a lane traceroute allocates on the
// tiny scenario. Over a plane that already holds the walk, on a lane that
// has met the routers, it is the Hops slice and nothing else. A first
// trace toward a prefix also stores the walk (its table entry and its
// steps) and pays its share of what the walks consulted and the lane
// keeps: BFS trees, egress sets, the reverse walks of routers that source
// replies toward the prober, the lane's one per-router table.
func TestTracerouteAllocBudget(t *testing.T) {
	s := eval.Build(topo.TinyProfile(), 1)
	vp := s.Net.VPs[0]
	var dsts []netx.Addr
	for _, p := range s.Tab.Prefixes() {
		dsts = append(dsts, p.First()+1)
	}
	traceAll := func(lane *probe.Lane) {
		for _, dst := range dsts {
			lane.Trace(dst, nil, nil)
		}
	}
	perTrace := func(allocs float64) float64 { return allocs / float64(len(dsts)) }

	cold := perTrace(testing.AllocsPerRun(5, func() {
		traceAll(probe.New(s.Net, s.Tab).NewLane(vp, 0))
	}))
	lane := s.Engine.Fork().NewLane(vp, 0)
	warm := perTrace(testing.AllocsPerRun(5, func() { traceAll(lane) }))
	t.Logf("%d traces: %.2f allocs/trace on an empty plane and a new lane, %.2f on filled ones", len(dsts), cold, warm)
	if warm != 1 {
		t.Errorf("a traceroute over a stored walk allocates %.2f times, want 1 (the Hops slice)", warm)
	}
	// Measures 6.47: Hops, the stored walk's two, ≈3 of shared routing (a
	// BFS tree is one slice; the plane's router index is a handful per
	// plane) and ≈0.01 of lane state. A record per router a lane meets, as
	// a map of them cost, reads 7.0.
	const coldBudget = 6.8
	if cold > coldBudget {
		t.Errorf("a traceroute on an empty plane allocates %.2f times, budget %.1f", cold, coldBudget)
	}
}

// TestColdMapProvenanceBudget pins what leaving the provenance log on costs
// a whole cold map — world build, every VP measured and inferred, compile —
// against the same map with the tracer taken away. Every scenario runs
// traced and there is no switch, so the log has to be nearly free: typed
// records in shared chunks come to a fraction of a percent of the map's
// allocations, where a string per attribute was a third of them.
func TestColdMapProvenanceBudget(t *testing.T) {
	coldMap := func(traced bool) float64 {
		return testing.AllocsPerRun(3, func() {
			s := eval.Build(topo.TinyProfile(), 1)
			if !traced {
				s.Trace = nil
			}
			if _, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{}); err != nil {
				t.Fatal(err)
			}
			mapdb.Compile(s.Net.HostASN, s.Results)
			if traced == (s.Trace.Len() == 0) {
				t.Fatalf("traced=%v but %d events retained", traced, s.Trace.Len())
			}
		})
	}
	off, on := coldMap(false), coldMap(true)
	t.Logf("a tiny cold map allocates %.0f times untraced, %.0f traced (%+.2f%%)", off, on, 100*(on-off)/off)
	if on > 1.05*off {
		t.Errorf("provenance adds %.1f%% to a cold map's allocations, budget 5%%", 100*(on-off)/off)
	}
}
