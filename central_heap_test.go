//go:build !race

package bdrmap

import (
	"runtime"
	"testing"

	"bdrmap/internal/eval"
	"bdrmap/internal/probe"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// liveHeap is the heap a full collection leaves, after a second one has
// swept what the first could only mark.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestCentralHeapBudget pins the central side of §5.8's state split: what
// a cold map of the benchmark's world (large-access, four VPs, one fleet
// worker) keeps live once it is done, and which holders keep it. The world
// is eval.Build's scenario before any VP is mapped; the map is what the
// fleet adds to it. Five holders are then let go one at a time and what
// each frees is its share: every dataset's traces, the forwarding plane
// (the scenario's engine swapped for a fresh one; forks share its plane),
// the span log, the per-VP results (router graphs and links) and every
// dataset's alias evidence (its resolver and alias graph). The scenario
// carries no provenance tracer: only the World attaches one. A warm-up map
// first fills the arenas core.Infer and the scamper driver keep between
// calls, so they count in neither figure.
//
// Built with Go 1.24 the world measures 6 120 KB and the map adds
// 5 745 KB: traces 2 638 KB (17 569 traces, 115 587 hop slots), plane
// 1 572 KB, spans 683 KB, results 591 KB and alias evidence 157 KB, which
// leaves ≈100 KB held by none of them. While eval.Build attached a tracer
// to every scenario the map added 7 802 KB, of which provenance 1 950 KB
// and alias evidence 264 KB (each resolver kept its VP's trace fragment
// alive). With pointer steps in the walk memo, 24-byte hops and span rings
// that copied their batches, the map added 10 975 KB, of which traces
// 3 607 KB, plane 3 755 KB and spans 740 KB. Each budget is about 5 % over
// its figure. The race detector changes what the runtime allocates, so
// the file is built without it (CI runs it in the allocation budgets
// step).
func TestCentralHeapBudget(t *testing.T) {
	const (
		budgetWorld   = 6430 << 10
		budgetMap     = 6030 << 10
		budgetTraces  = 2770 << 10
		budgetPlane   = 1650 << 10
		budgetSpans   = 720 << 10
		budgetResults = 620 << 10
		budgetAlias   = 165 << 10
	)
	prof := topo.LargeAccessProfile()
	prof.NumVPs = 4
	mapAll := func(s *eval.Scenario) {
		if _, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	mapAll(eval.Build(prof, 1))

	before := liveHeap()
	s := eval.Build(prof, 1)
	built := liveHeap()
	mapAll(s)
	full := liveHeap()

	traces, slots := 0, 0
	for _, ds := range s.Datasets {
		traces += len(ds.Traces)
		for _, tr := range ds.Traces {
			slots += cap(tr.Hops)
		}
		ds.Traces = nil
	}
	noTraces := liveHeap()
	s.Engine = probe.New(s.Net, s.Tab)
	noPlane := liveHeap()
	s.Spans, s.SpanRoot = nil, nil
	noSpans := liveHeap()
	s.Results = nil
	noResults := liveHeap()
	for _, ds := range s.Datasets {
		ds.Resolver, ds.Graph = nil, nil
	}
	noAlias := liveHeap()
	runtime.KeepAlive(s)

	for _, h := range []struct {
		name         string
		bytes, limit int64
	}{
		{"world", built - before, budgetWorld},
		{"map", full - built, budgetMap},
		{"traces", full - noTraces, budgetTraces},
		{"plane", noTraces - noPlane, budgetPlane},
		{"spans", noPlane - noSpans, budgetSpans},
		{"results", noSpans - noResults, budgetResults},
		{"alias", noResults - noAlias, budgetAlias},
	} {
		t.Logf("%-7s %6d KB live (budget %d KB)", h.name, h.bytes>>10, h.limit>>10)
		if h.bytes > h.limit {
			t.Errorf("%s keeps %d KB live, budget %d KB", h.name, h.bytes>>10, h.limit>>10)
		}
	}
	if s.Trace != nil {
		t.Error("eval.Build attached a provenance tracer")
	}
	t.Logf("%d traces, %d hop slots; %d KB of the map held by none of these", traces, slots, (noAlias-built)>>10)
}
