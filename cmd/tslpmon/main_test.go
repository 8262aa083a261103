package main

import (
	"reflect"
	"sort"
	"testing"

	"bdrmap"
	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
	"bdrmap/internal/tslp"
)

func sortTargets(ts []tslp.Target) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.FarAS != b.FarAS {
			return a.FarAS < b.FarAS
		}
		if a.Near != b.Near {
			return a.Near < b.Near
		}
		return a.Far < b.Far
	})
}

// TestDeriveTargetsMatchesReportPath pins the mapdb migration: the targets
// derived from the compiled snapshot must be exactly the ones the
// pre-mapdb code derived by walking Report.Links directly.
func TestDeriveTargetsMatchesReportPath(t *testing.T) {
	for _, prof := range []struct {
		name string
		p    bdrmap.Profile
	}{
		{"tiny", bdrmap.Tiny()},
		{"small-access", bdrmap.SmallAccess()},
	} {
		t.Run(prof.name, func(t *testing.T) {
			world := bdrmap.NewWorld(prof.p, 1)
			report := world.MapBorders(0)
			s := world.Scenario()
			lane := s.Engine.NewLane(s.Net.VPs[0], 0)
			echo := func(a netx.Addr) bool {
				return lane.Probe(a, probe.MethodICMPEcho).OK
			}

			// The pre-mapdb selection loop, verbatim.
			var old []tslp.Target
			for _, l := range report.Links {
				if l.FarAddr.IsZero() {
					continue
				}
				if echo(l.NearAddr) && echo(l.FarAddr) {
					old = append(old, tslp.Target{Near: l.NearAddr, Far: l.FarAddr, FarAS: l.FarAS})
				}
			}

			snap := world.BuildMapDB()
			got := deriveTargets(snap, echo)

			if snap.NumLinks() != len(report.Links) {
				t.Errorf("snapshot serves %d links, report has %d", snap.NumLinks(), len(report.Links))
			}
			sortTargets(old)
			sortTargets(got)
			if !reflect.DeepEqual(old, got) {
				t.Fatalf("target selection changed:\nold: %v\nnew: %v", old, got)
			}
			if len(got) == 0 {
				t.Fatal("no monitorable targets derived")
			}
		})
	}
}
