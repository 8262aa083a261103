package scamper

import (
	"testing"
	"time"

	"bdrmap/internal/alias"
	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// runVP0 measures (prof, seed) from its first VP through prober, which
// wraps the local one, with the engine and the driver counting into one
// registry.
func runVP0(prof topo.Profile, seed int64, wrap func(LocalProber) Prober) (*Dataset, obs.Snapshot) {
	n := topo.Generate(prof, seed)
	tab := bgp.NewTable(n)
	reg := obs.New()
	e := probe.New(n, tab)
	e.SetObs(reg)
	hosts := map[topo.ASN]bool{n.HostASN: true}
	for _, s := range n.Siblings(n.HostASN) {
		hosts[s] = true
	}
	d := &Driver{
		View:     bgp.Collect(tab, bgp.DefaultVantages(n)),
		Prober:   wrap(LocalProber{E: e, VP: n.VPs[0]}),
		HostASNs: hosts,
		Obs:      reg,
	}
	ds := d.Run()
	return ds, reg.Snapshot()
}

// runFleet measures (prof, seed) from every VP the way a fleet does, each
// VP on a fork of one engine and all counting into one registry: every
// probe stage, then the alias stages in VP order on one book.
func runFleet(prof topo.Profile, seed int64) obs.Snapshot {
	n := topo.Generate(prof, seed)
	tab := bgp.NewTable(n)
	reg := obs.New()
	e := probe.New(n, tab)
	view := bgp.Collect(tab, bgp.DefaultVantages(n))
	probed := make([]*Probed, len(n.VPs))
	for i, vp := range n.VPs {
		f := e.Fork()
		f.SetObs(reg)
		d := &Driver{View: view, Prober: LocalProber{E: f, VP: vp}, HostASNs: map[topo.ASN]bool{n.HostASN: true}, Obs: reg}
		probed[i] = d.Probe()
	}
	book := alias.NewBook()
	for _, p := range probed {
		book.Learn(p.Resolve(book).Resolver)
	}
	return reg.Snapshot()
}

// TestPacketLedgerSums: the driver's ledger accounts for every packet the
// engine sent. The alias stage's probes by operation sum to probe.probes,
// and the live traces' packets before and from their first external hop
// sum to the rest of probe.packets_sent. It holds from VP 0 of every
// profile, and over a 4-VP fleet whose later VPs ask only what the alias
// book left open.
func TestPacketLedgerSums(t *testing.T) {
	type world struct {
		name  string
		prof  topo.Profile
		fleet bool
	}
	var worlds []world
	for _, prof := range topo.BuiltinProfiles() {
		worlds = append(worlds, world{prof.Name, prof, false})
	}
	coldMap := topo.LargeAccessProfile()
	coldMap.NumVPs = 4
	worlds = append(worlds, world{"large-access-4vp-fleet", coldMap, true})
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			var s obs.Snapshot
			if w.fleet {
				s = runFleet(w.prof, 1)
				if s.Counter("driver.alias.book_hits") == 0 {
					t.Error("the fleet's book settled no operation")
				}
			} else {
				_, s = runVP0(w.prof, 1, func(p LocalProber) Prober { return p })
			}
			probes, packets := s.Counter("probe.probes"), s.Counter("probe.packets_sent")
			alias := s.Counter("driver.alias.probes.sweep") + s.Counter("driver.alias.probes.mercator") +
				s.Counter("driver.alias.probes.pick") + s.Counter("driver.alias.probes.ally")
			near, far := s.Counter("driver.trace.packets.near"), s.Counter("driver.trace.packets.far")
			if alias != probes {
				t.Errorf("alias probes by operation sum to %d, probe.probes = %d", alias, probes)
			}
			if near+far != packets-probes {
				t.Errorf("trace packets near %d + far %d = %d, want packets_sent - probes = %d",
					near, far, near+far, packets-probes)
			}
			if near == 0 || far == 0 {
				t.Errorf("trace packets near %d, far %d: a side is empty", near, far)
			}
		})
	}
}

// TestAliasPairVerdictsSum: every candidate pair the alias stage resolves
// is counted once by its final verdict, whichever test supplied it, and
// the pairs Ally ended on a blind address are among the unknown ones.
func TestAliasPairVerdictsSum(t *testing.T) {
	for _, prof := range topo.BuiltinProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			_, s := runVP0(prof, 1, func(p LocalProber) Prober { return p })
			pairs := s.Counter("driver.alias.pairs")
			yes, no := s.Counter("driver.alias.pairs.yes"), s.Counter("driver.alias.pairs.no")
			unknown, blind := s.Counter("driver.alias.pairs.unknown"), s.Counter("driver.alias.ally_blind")
			if yes+no+unknown != pairs {
				t.Errorf("pairs.yes %d + pairs.no %d + pairs.unknown %d = %d, driver.alias.pairs = %d",
					yes, no, unknown, yes+no+unknown, pairs)
			}
			if blind > unknown {
				t.Errorf("ally_blind %d exceeds pairs.unknown %d", blind, unknown)
			}
		})
	}
}

// probeLog is a prober whose timelines record every direct probe's target.
type probeLog struct {
	LocalProber
	targets map[netx.Addr]bool
}

func (p *probeLog) Open(start time.Duration) Timeline {
	return &loggedTimeline{Timeline: p.LocalProber.Open(start), log: p}
}

// loggedTimeline is a pointer so that Driver.Run can tell two timelines
// apart with !=.
type loggedTimeline struct {
	Timeline
	log *probeLog
}

func (tl *loggedTimeline) Probe(target netx.Addr, m probe.Method) probe.Response {
	tl.log.targets[target] = true
	return tl.Timeline.Probe(target, m)
}

// TestAliasStageProbesOnlyObservedAddresses: the alias stage resolves the
// interfaces traceroute saw, so every direct probe it sends targets an
// address some trace of the VP observed as a time-exceeded hop.
func TestAliasStageProbesOnlyObservedAddresses(t *testing.T) {
	for _, prof := range topo.BuiltinProfiles() {
		if testing.Short() && prof.Name != "tiny" && prof.Name != "r&e" {
			continue
		}
		for seed := int64(1); seed <= 2; seed++ {
			var log *probeLog
			ds, _ := runVP0(prof, seed, func(p LocalProber) Prober {
				log = &probeLog{LocalProber: p, targets: make(map[netx.Addr]bool)}
				return log
			})
			observed := make(map[netx.Addr]bool)
			for _, tr := range ds.Traces {
				for _, h := range tr.Hops {
					if h.Type == probe.HopTimeExceeded {
						observed[h.Addr] = true
					}
				}
			}
			unseen := 0
			var first netx.Addr
			for a := range log.targets {
				if !observed[a] {
					if unseen == 0 || a < first {
						first = a
					}
					unseen++
				}
			}
			if unseen > 0 {
				t.Errorf("%s seed %d: %d of %d probed addresses were never observed (lowest %v)",
					prof.Name, seed, unseen, len(log.targets), first)
			}
		}
	}
}
