package tslp

import (
	"testing"
	"time"

	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// world builds a tiny network with two interdomain links and returns the
// engine, the lane of its first VP that pinged them, the two (near, far)
// target pairs and their links.
func world(t *testing.T) (*probe.Engine, *probe.Lane, []Target, []*topo.Link) {
	t.Helper()
	n := topo.Generate(topo.TinyProfile(), 1)
	e := probe.New(n, bgp.NewTable(n))
	lane := e.NewLane(n.VPs[0], 0)
	var targets []Target
	var links []*topo.Link
	for _, lt := range n.InterdomainLinks(n.HostASN) {
		l := lt.Link
		nearIf := l.IfaceOn(lt.NearRtr)
		farIf := l.IfaceOn(lt.FarRtr)
		if nearIf == nil || farIf == nil {
			continue
		}
		// Both sides must answer pings for TSLP to monitor the link.
		if !lane.Probe(nearIf.Addr, probe.MethodICMPEcho).OK ||
			!lane.Probe(farIf.Addr, probe.MethodICMPEcho).OK {
			continue
		}
		targets = append(targets, Target{Near: nearIf.Addr, Far: farIf.Addr, FarAS: lt.FarAS})
		links = append(links, l)
		if len(targets) == 2 {
			break
		}
	}
	if len(targets) < 2 {
		t.Skip("need two pingable interdomain links")
	}
	return e, lane, targets, links
}

func TestRTTModelGeographic(t *testing.T) {
	n := topo.Generate(topo.LargeAccessProfile(), 1)
	e := probe.New(n, bgp.NewTable(n))
	// RTT from the west-coast VP to an east-coast backbone interface must
	// exceed RTT to a west-coast one.
	lane := e.NewLane(n.VPs[0], 0) // sea
	var west, east netx.Addr
	for _, r := range n.Routers {
		if r.Owner != n.HostASN || len(r.Addrs()) == 0 {
			continue
		}
		if r.Longitude < -120 && west.IsZero() && lane.Probe(r.Addrs()[0], probe.MethodICMPEcho).OK {
			west = r.Addrs()[0]
		}
		if r.Longitude > -75 && east.IsZero() && lane.Probe(r.Addrs()[0], probe.MethodICMPEcho).OK {
			east = r.Addrs()[0]
		}
	}
	if west.IsZero() || east.IsZero() {
		t.Skip("no pingable coastal routers")
	}
	rw := lane.Probe(west, probe.MethodICMPEcho).RTT
	re := lane.Probe(east, probe.MethodICMPEcho).RTT
	if re <= rw {
		t.Fatalf("east RTT %v <= west RTT %v", re, rw)
	}
	if re < 10*time.Millisecond || re > 200*time.Millisecond {
		t.Fatalf("cross-country RTT %v implausible", re)
	}
}

func TestDetectInjectedCongestion(t *testing.T) {
	e, lane, targets, links := world(t)

	// Congest link 0 from 18:00 to 23:00, leave link 1 alone.
	e.InjectCongestion(probe.CongestionEpisode{
		Link:  links[0],
		Start: 18 * time.Hour,
		End:   23 * time.Hour,
		Queue: 40 * time.Millisecond,
	})
	series := Run(lane, targets, Config{Interval: 5 * time.Minute, Duration: 24 * time.Hour})
	reports := DetectAll(series, 30*time.Minute, 3*time.Millisecond)

	byNear := map[netx.Addr]Report{}
	for _, r := range reports {
		byNear[r.Target.Near] = r
	}
	r0 := byNear[targets[0].Near]
	r1 := byNear[targets[1].Near]
	if !r0.Congested() {
		t.Fatalf("congested link not detected: %+v", r0)
	}
	if r1.Congested() {
		t.Fatalf("uncongested link flagged: %+v", r1)
	}
	// The episode should cover roughly 18:00-23:00.
	ep := r0.Episodes[0]
	if ep.Start < 17*time.Hour || ep.Start > 19*time.Hour {
		t.Errorf("episode start %v, want ~18h", ep.Start)
	}
	if ep.End < 22*time.Hour || ep.End > 24*time.Hour {
		t.Errorf("episode end %v, want ~23h", ep.End)
	}
	if ep.Elevation < 30*time.Millisecond {
		t.Errorf("elevation %v, want ~40ms", ep.Elevation)
	}
	// Near side must be flagged stable: queueing is past the border.
	if !r0.NearStable {
		t.Error("near side reported unstable")
	}
	if r0.String() == "" || r1.String() == "" {
		t.Error("empty report rendering")
	}
}

func TestDetectNoFalsePositivesQuietDay(t *testing.T) {
	_, lane, targets, _ := world(t)
	series := Run(lane, targets, Config{Interval: 10 * time.Minute, Duration: 12 * time.Hour})
	for _, r := range DetectAll(series, 30*time.Minute, 3*time.Millisecond) {
		if r.Congested() {
			t.Fatalf("false positive on quiet network: %v", r)
		}
	}
}

func TestPathWideShiftNotFlagged(t *testing.T) {
	// Congestion on an *internal* link upstream of the border elevates
	// both near and far RTTs: TSLP must not call it interdomain.
	e, lane, targets, _ := world(t)
	n := e.Net
	// Find an internal host link on the path (the VP's access link).
	var internal *topo.Link
	for _, l := range n.Links {
		if l.Kind == topo.LinkInternal && len(l.Ifaces) >= 1 {
			r := n.Router(l.Ifaces[0].Router)
			if r != nil && r.Owner == n.HostASN {
				internal = l
				break
			}
		}
	}
	if internal == nil {
		t.Skip("no internal link")
	}
	e.InjectCongestion(probe.CongestionEpisode{
		Link:  internal,
		Start: 0,
		End:   24 * time.Hour,
		Queue: 40 * time.Millisecond,
	})
	series := Run(lane, targets[:1], Config{Interval: 10 * time.Minute, Duration: 6 * time.Hour})
	rep := Detect(series[0], 30*time.Minute, 3*time.Millisecond)
	if rep.Congested() {
		// Only acceptable if the internal link is not actually on this
		// target's path (then nothing shifted at all).
		t.Fatalf("path-wide shift misattributed to the interdomain link: %v", rep)
	}
}

func TestRunCadence(t *testing.T) {
	_, lane, targets, _ := world(t)
	series := Run(lane, targets[:1], Config{Interval: time.Hour, Duration: 6 * time.Hour})
	if len(series[0].Samples) != 6 {
		t.Fatalf("samples = %d, want 6", len(series[0].Samples))
	}
	var prev time.Duration
	for i, s := range series[0].Samples {
		if i > 0 && s.When <= prev {
			t.Fatalf("samples not advancing: %v then %v", prev, s.When)
		}
		prev = s.When
	}
}
