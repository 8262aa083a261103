package mapdb

import (
	"math/rand"
	"testing"

	"bdrmap/internal/eval"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// TestNoLiveTraceRepeatsLastRound: an incremental round walks a trace live
// only when last round's trace to that destination could not stand in for
// it. Over 20 churn rounds of RunRounds' schedule on every built-in
// profile, no trace a round walked live has the hops and stop flag of the
// same VP's last-round trace to its destination: that walk returned what
// replay would have, so its packets were spent for nothing. A trace is
// live when its provenance event says cached=false; the events of a
// scenario are its VPs' traces in dataset order.
func TestNoLiveTraceRepeatsLastRound(t *testing.T) {
	for _, prof := range topo.BuiltinProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			const seed, rounds = 1, 20
			n := topo.Generate(prof, seed)
			rng := rand.New(rand.NewSource(seed ^ 0x6d617064)) // RunRoundsFull's churn stream
			states := roundStates(len(n.VPs))
			last := make([]map[netx.Addr]probe.TraceResult, len(n.VPs))
			wasted, live := 0, 0
			for r := range rounds {
				if r > 0 {
					if _, err := mutateWorld(n, rng, r); err != nil {
						t.Fatal(err)
					}
					n.Build()
				}
				s := eval.BuildFromNetwork(n, seed)
				s.Trace = obs.NewTracer()
				if _, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{States: states}); err != nil {
					t.Fatal(err)
				}
				var events []obs.Event
				for _, ev := range s.Trace.Events() {
					if ev.Kind == "trace" {
						events = append(events, ev)
					}
				}
				for vp, ds := range s.Datasets {
					now := make(map[netx.Addr]probe.TraceResult, len(ds.Traces))
					for _, tr := range ds.Traces {
						ev := events[0]
						events = events[1:]
						if ev.Subject != tr.Dst.String() {
							t.Fatalf("round %d VP %d: trace event for %s beside the trace to %v", r, vp, ev.Subject, tr.Dst)
						}
						now[tr.Dst] = tr.TraceResult
						if ev.Attr("cached") == "true" {
							continue
						}
						live++
						if prev, ok := last[vp][tr.Dst]; ok && sameWalk(prev, tr.TraceResult) {
							wasted++
							if wasted <= 5 {
								t.Errorf("round %d VP %d: walked %v live, and it repeats last round's trace (%d hops, stopped %t)",
									r, vp, tr.Dst, len(tr.Hops), tr.Stopped)
							}
						}
					}
					last[vp] = now
				}
				if len(events) != 0 {
					t.Fatalf("round %d: %d trace events beyond the datasets' traces", r, len(events))
				}
			}
			if wasted > 0 {
				t.Errorf("%d of %d live traces repeated last round's", wasted, live)
			}
		})
	}
}

// sameWalk reports whether two traces saw the same hops (TTL, response
// class, address) and ended on the stop set alike.
func sameWalk(a, b probe.TraceResult) bool {
	if a.Stopped != b.Stopped || len(a.Hops) != len(b.Hops) {
		return false
	}
	for i, h := range a.Hops {
		if g := b.Hops[i]; g.TTL != h.TTL || g.Type != h.Type || g.Addr != h.Addr {
			return false
		}
	}
	return true
}
