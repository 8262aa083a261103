// Congestion monitoring: the paper's motivating application (§2).
//
// The CAIDA/MIT interdomain congestion project probes the near and far
// side of every interdomain link on a fixed cadence (time-series latency
// probing, TSLP): a recurring evening elevation of the far side's minimum
// RTT — while the near side stays flat — is the signature of an
// under-provisioned interconnect. The paper's point is that the hard
// measurement problem is *finding the (near, far) address pairs*; that is
// exactly what bdrmap produces.
//
// This example runs the full loop: map the borders, derive probe targets,
// let the simulated world develop evening congestion on one interdomain
// link, probe for 24 hours, and identify the congested interconnect.
package main

import (
	"fmt"
	"time"

	"bdrmap"
	"bdrmap/internal/probe"
	"bdrmap/internal/tslp"
)

func main() {
	world := bdrmap.NewWorld(bdrmap.SmallAccess(), 1)
	report := world.MapBorders(0)
	s := world.Scenario()

	// Step 1 (the hard part, per the paper): derive (near, far) probe
	// targets from the border map. Silent neighbors have no far side to
	// probe — the links TSLP cannot monitor.
	lane := s.Engine.NewLane(s.Net.VPs[0], 0)
	var targets []tslp.Target
	unmonitorable := 0
	for _, l := range report.Links {
		if l.FarAddr.IsZero() {
			unmonitorable++
			continue
		}
		if !lane.Probe(l.NearAddr, probe.MethodICMPEcho).OK ||
			!lane.Probe(l.FarAddr, probe.MethodICMPEcho).OK {
			unmonitorable++
			continue
		}
		targets = append(targets, tslp.Target{Near: l.NearAddr, Far: l.FarAddr, FarAS: l.FarAS})
	}
	fmt.Printf("border map: %d links; %d monitorable target pairs (%d silent/unresponsive)\n",
		len(report.Links), len(targets), unmonitorable)

	// Step 2: the world develops evening congestion on one interconnect
	// (unknown to the measurement system).
	congestedIdx := len(targets) / 2
	victim := targets[congestedIdx]
	for _, lt := range s.Net.InterdomainLinks(s.Net.HostASN) {
		if lt.Link.Subnet.Contains(victim.Far) {
			s.Engine.InjectCongestion(probe.CongestionEpisode{
				Link:  lt.Link,
				Start: 19 * time.Hour,
				End:   23 * time.Hour,
				Queue: 35 * time.Millisecond,
			})
		}
	}

	// Step 3: probe every pair for 24 hours at a 5-minute cadence.
	series := tslp.Run(lane, targets, tslp.Config{
		Interval: 5 * time.Minute,
		Duration: 24 * time.Hour,
	})

	// Step 4: level-shift detection.
	fmt.Println("\nTSLP reports (congested links first):")
	detected := 0
	for _, r := range tslp.DetectAll(series, 30*time.Minute, 3*time.Millisecond) {
		if r.Congested() {
			detected++
			fmt.Println("  ", r)
		}
	}
	fmt.Printf("\n%d congested interconnect(s) detected; ground truth was %v<->%v (%v)\n",
		detected, victim.Near, victim.Far, victim.FarAS)
}
