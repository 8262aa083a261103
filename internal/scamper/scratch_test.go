package scamper_test

import (
	"reflect"
	"sync"
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// fleetPrint is what a fleet produced, reduced to what must not depend on
// which arenas its stages borrowed: every VP's result and trace
// fingerprint, and the provenance stream's fingerprint.
type fleetPrint struct {
	results []*core.Result
	traces  []uint64
	events  string
}

func runFleet(t *testing.T, prof topo.Profile, workers int) fleetPrint {
	s := eval.Build(prof, 1)
	s.Trace = obs.NewTracer()
	res, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{Workers: workers})
	if err != nil {
		t.Error(err)
		return fleetPrint{}
	}
	fp := fleetPrint{results: res, events: s.Trace.Fingerprint()}
	for _, ds := range s.Datasets {
		fp.traces = append(fp.traces, ds.TraceFingerprint())
	}
	return fp
}

// TestConcurrentFleetsShareArenas: two fleets of two workers each run at
// once, so up to four stages borrow arenas from the driver's free list
// together, and arenas pass between the two worlds' VPs; each fleet's
// results, trace fingerprints and provenance stream equal a serial run's,
// and afterwards the list holds at most four arenas, each empty.
func TestConcurrentFleetsShareArenas(t *testing.T) {
	large := topo.LargeAccessProfile()
	large.NumVPs = 4
	profs := []topo.Profile{topo.RegionalVPProfile(), large}
	want := make([]fleetPrint, len(profs))
	for i, prof := range profs {
		want[i] = runFleet(t, prof, 1)
		t.Logf("%s: %d VPs, %d links on VP 0", prof.Name, len(want[i].results), len(want[i].results[0].Links))
	}
	scamper.DrainArenas()
	for round := range 2 {
		got := make([]fleetPrint, len(profs))
		var wg sync.WaitGroup
		for i, prof := range profs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = runFleet(t, prof, 2)
			}()
		}
		wg.Wait()
		for i, prof := range profs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("round %d, %s: a concurrent fleet differs from the serial one", round, prof.Name)
			}
		}
	}
	idle := scamper.IdleArenas()
	if len(idle) == 0 || len(idle) > 4 {
		t.Errorf("the free list holds %d arenas after at most 4 stages at once", len(idle))
	}
	for i, ia := range idle {
		if ia.Dirty != "" {
			t.Errorf("idle arena %d is not empty: %s", i, ia.Dirty)
		}
	}
}
