// Package tslp implements time-series latency probing, the interdomain
// congestion measurement method of the CAIDA/MIT project that bdrmap was
// built to serve (§2 of the paper, and "Challenges in Inferring Internet
// Interdomain Congestion", IMC 2014). For each interdomain link bdrmap
// identified, TSLP pings the near (host-side) and far (neighbor-side)
// router interfaces on a fixed cadence; a recurring elevation of the far
// side's minimum RTT while the near side stays flat is the signature of an
// congested interconnect — queueing happens in the border router's egress
// buffer, so only probes crossing the link see it.
//
// The paper's central point stands here too: the hard part was *finding*
// the (near, far) address pairs; bdrmap supplies them, TSLP just probes.
package tslp

import (
	"fmt"
	"sort"
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// Target is one monitored interdomain link: the probe address on each
// side, as inferred by bdrmap.
type Target struct {
	Near, Far netx.Addr
	FarAS     topo.ASN
}

// Sample is one probing round's result for a target.
type Sample struct {
	When    time.Duration
	NearRTT time.Duration // 0 when unanswered
	FarRTT  time.Duration
}

// Series is a target's collected time series.
type Series struct {
	Target  Target
	Samples []Sample
}

// Config tunes the prober; zero values give a 5-minute cadence for 24h.
type Config struct {
	Interval time.Duration // default 5 minutes
	Duration time.Duration // default 24 hours
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 5 * time.Minute
	}
	if c.Duration == 0 {
		c.Duration = 24 * time.Hour
	}
	return c
}

// Run probes every target once per interval for the configured duration,
// interleaving targets within a round the way the real deployment does.
func Run(p probe.Source, targets []Target, cfg Config) []Series {
	cfg = cfg.withDefaults()
	out := make([]Series, len(targets))
	for i, t := range targets {
		out[i].Target = t
	}
	rounds := int(cfg.Duration / cfg.Interval)
	for r := 0; r < rounds; r++ {
		for i, t := range targets {
			s := Sample{}
			near := p.Probe(t.Near, probe.MethodICMPEcho)
			if near.OK {
				s.When = near.When
				s.NearRTT = near.RTT
			}
			far := p.Probe(t.Far, probe.MethodICMPEcho)
			if far.OK {
				s.When = far.When
				s.FarRTT = far.RTT
			}
			out[i].Samples = append(out[i].Samples, s)
		}
		p.Advance(cfg.Interval)
	}
	return out
}

// Episode is one detected congestion period on a target link.
type Episode struct {
	Start, End time.Duration
	// Elevation is the far-side minimum-RTT increase over baseline.
	Elevation time.Duration
}

// Report is the detection outcome for one link.
type Report struct {
	Target   Target
	Episodes []Episode
	// Baseline is the uncongested far-side minimum RTT.
	Baseline time.Duration
	// NearStable reports that the near side showed no comparable shift
	// (distinguishing interdomain queueing from path-wide effects).
	NearStable bool
}

// Congested reports whether any episode was detected.
func (r Report) Congested() bool { return len(r.Episodes) > 0 }

// Detect applies the level-shift test: windows whose far-side minimum RTT
// exceeds the series baseline by more than threshold form episodes; the
// near side must stay within threshold of its own baseline for the
// episode to count as interdomain congestion.
func Detect(s Series, window time.Duration, threshold time.Duration) Report {
	rep := Report{Target: s.Target, NearStable: true}
	if len(s.Samples) == 0 {
		return rep
	}
	if window == 0 {
		window = 30 * time.Minute
	}
	if threshold == 0 {
		threshold = 3 * time.Millisecond
	}
	farBase := minRTT(s.Samples, func(x Sample) time.Duration { return x.FarRTT })
	nearBase := minRTT(s.Samples, func(x Sample) time.Duration { return x.NearRTT })
	rep.Baseline = farBase

	type win struct {
		start     time.Duration
		farMin    time.Duration
		nearMin   time.Duration
		populated bool
	}
	var wins []win
	for _, smp := range s.Samples {
		if smp.FarRTT == 0 {
			continue
		}
		idx := int(smp.When / window)
		for len(wins) <= idx {
			wins = append(wins, win{start: time.Duration(len(wins)) * window})
		}
		w := &wins[idx]
		if !w.populated || smp.FarRTT < w.farMin {
			w.farMin = smp.FarRTT
		}
		if smp.NearRTT > 0 && (!w.populated || smp.NearRTT < w.nearMin) {
			w.nearMin = smp.NearRTT
		}
		w.populated = true
	}

	var cur *Episode
	for _, w := range wins {
		congested := w.populated && w.farMin > farBase+threshold
		if congested && w.nearMin > nearBase+threshold {
			// The whole path shifted: not an interdomain signature.
			rep.NearStable = false
			congested = false
		}
		switch {
		case congested && cur == nil:
			cur = &Episode{Start: w.start, End: w.start + window, Elevation: w.farMin - farBase}
		case congested:
			cur.End = w.start + window
			if e := w.farMin - farBase; e > cur.Elevation {
				cur.Elevation = e
			}
		case cur != nil:
			rep.Episodes = append(rep.Episodes, *cur)
			cur = nil
		}
	}
	if cur != nil {
		rep.Episodes = append(rep.Episodes, *cur)
	}
	return rep
}

func minRTT(samples []Sample, get func(Sample) time.Duration) time.Duration {
	min := time.Duration(0)
	for _, s := range samples {
		v := get(s)
		if v == 0 {
			continue
		}
		if min == 0 || v < min {
			min = v
		}
	}
	return min
}

// DetectAll runs Detect over every series and returns reports sorted with
// congested links first.
func DetectAll(series []Series, window, threshold time.Duration) []Report {
	out := make([]Report, 0, len(series))
	for _, s := range series {
		out = append(out, Detect(s, window, threshold))
	}
	sort.SliceStable(out, func(i, j int) bool {
		ci, cj := out[i].Congested(), out[j].Congested()
		if ci != cj {
			return ci
		}
		return out[i].Target.Near < out[j].Target.Near
	})
	return out
}

// String renders a report line.
func (r Report) String() string {
	if !r.Congested() {
		return fmt.Sprintf("%v<->%v (%v): uncongested (baseline %v)",
			r.Target.Near, r.Target.Far, r.Target.FarAS, r.Baseline.Round(time.Millisecond))
	}
	e := r.Episodes[0]
	day := 24 * time.Hour
	return fmt.Sprintf("%v<->%v (%v): CONGESTED %02d:00-%02d:00, +%v over %v baseline (%d episode(s))",
		r.Target.Near, r.Target.Far, r.Target.FarAS,
		int((e.Start%day)/time.Hour), int((e.End%day)/time.Hour),
		e.Elevation.Round(time.Millisecond),
		r.Baseline.Round(time.Millisecond), len(r.Episodes))
}
