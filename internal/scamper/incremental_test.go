package scamper

import (
	"reflect"
	"sort"
	"testing"

	"bdrmap/internal/alias"
	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

func newIncSetup(t *testing.T, seed int64, st *RoundState, reg *obs.Registry) *Driver {
	t.Helper()
	n, e, view, hosts := setup(t, seed)
	e.SetObs(reg)
	return &Driver{
		View:     view,
		Prober:   LocalProber{E: e, VP: n.VPs[0]},
		HostASNs: hosts,
		Cfg:      Config{State: st},
		Obs:      reg,
	}
}

// Replay is validated against the engine's path signature, so cross-round
// state with any prober but a LocalProber is a programming error: Run
// panics before touching the state.
func TestRoundStateNeedsLocalProber(t *testing.T) {
	st := NewRoundState()
	d := newIncSetup(t, 7, st, nil)
	d.Prober = struct{ LocalProber }{d.Prober.(LocalProber)}
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted cross-round state on a non-local prober")
		}
		if len(st.traces) != 0 || len(st.aliases) != 0 {
			t.Errorf("state holds %d traces and %d alias verdicts after the panic",
				len(st.traces), len(st.aliases))
		}
	}()
	d.Run()
}

// An unchanged world must replay every target from cache: zero live
// traces, zero probe packets, and a dataset whose traces, alias verdicts,
// and fingerprint are identical to the first round's.
func TestIncrementalUnchangedWorldFullHit(t *testing.T) {
	st := NewRoundState()
	reg1 := obs.New()
	d1 := newIncSetup(t, 7, st, reg1)
	ds1 := d1.Run()
	if ds1.Stats.TracesLive != ds1.Stats.Traces || ds1.Stats.TracesCached != 0 {
		t.Fatalf("round 1 should be all live: %+v", ds1.Stats)
	}
	snap1 := reg1.Snapshot()
	targets := snap1.Counter("driver.targets")
	if targets == 0 {
		t.Fatal("round 1 planned no targets")
	}
	if got := snap1.Counter("rounds.cache.miss"); got != targets {
		t.Fatalf("round 1 misses = %d, want %d", got, targets)
	}

	reg2 := obs.New()
	d2 := newIncSetup(t, 7, st, reg2)
	ds2 := d2.Run()
	if ds2.Stats.TracesLive != 0 {
		t.Fatalf("round 2 ran %d live traces on an unchanged world", ds2.Stats.TracesLive)
	}
	if ds2.Stats.TracesCached != ds2.Stats.Traces || ds2.Stats.Traces != ds1.Stats.Traces {
		t.Fatalf("round 2 cache split wrong: %+v vs round1 %+v", ds2.Stats, ds1.Stats)
	}
	snap := reg2.Snapshot()
	if got, miss := snap.Counter("rounds.cache.hit"), snap.Counter("rounds.cache.miss"); got != targets || miss != 0 {
		t.Fatalf("rounds.cache.hit = %d, rounds.cache.miss = %d, want %d hits", got, miss, targets)
	}
	if got := snap.Counter("probe.packets_sent"); got != 0 {
		t.Fatalf("unchanged world still sent %d probe packets", got)
	}
	if len(ds2.Dirty) != 0 {
		t.Fatalf("unchanged world marked %d addresses dirty", len(ds2.Dirty))
	}
	if ds1.TraceFingerprint() != ds2.TraceFingerprint() {
		t.Fatal("trace fingerprints differ between live and replayed rounds")
	}
	if !reflect.DeepEqual(stripVolatile(ds1.Traces), stripVolatile(ds2.Traces)) {
		t.Fatal("replayed traces differ from live traces")
	}
	if !sameVerdicts(ds1.Resolver, ds2.Resolver) {
		t.Fatal("alias verdicts differ between live and replayed rounds")
	}
	if ds2.Stats.AliasOpsReplayed == 0 {
		t.Fatal("no alias operations replayed on an unchanged world")
	}
}

// sameVerdicts compares two resolvers' recorded verdict sets (order-free:
// Positives/Negatives iterate maps). The alias graph is a pure function of
// these sets, so equal verdicts imply equal router groupings.
func sameVerdicts(a, b *alias.Resolver) bool {
	sortPairs := func(ps [][2]netx.Addr) [][2]netx.Addr {
		sort.Slice(ps, func(i, j int) bool {
			if ps[i][0] != ps[j][0] {
				return ps[i][0] < ps[j][0]
			}
			return ps[i][1] < ps[j][1]
		})
		return ps
	}
	return reflect.DeepEqual(sortPairs(a.Positives()), sortPairs(b.Positives())) &&
		reflect.DeepEqual(sortPairs(a.Negatives()), sortPairs(b.Negatives()))
}

// stripVolatile zeroes the per-responder state (IP-ID, RTT) that replay
// intentionally freezes; inference never reads it.
func stripVolatile(recs []TraceRecord) []TraceRecord {
	out := make([]TraceRecord, len(recs))
	for i, r := range recs {
		hops := make([]probe.Hop, len(r.Hops))
		for j, h := range r.Hops {
			h.IPID, h.RTT = 0, 0
			hops[j] = h
		}
		r.Hops = hops
		r.TraceResult.Hops = hops
		out[i] = r
	}
	return out
}

// A mutated world must diverge exactly where paths changed and produce a
// dataset identical to a from-scratch run on the same world, while the
// dirty set covers every address whose trace evidence changed.
func TestIncrementalMutatedWorldMatchesScratch(t *testing.T) {
	st := NewRoundState()
	// Round 1 on the base world.
	n1, e1, view1, hosts1 := setup(t, 9)
	d1 := &Driver{View: view1, Prober: LocalProber{E: e1, VP: n1.VPs[0]}, HostASNs: hosts1, Cfg: Config{State: st}}
	d1.Run()

	// Mutate: drop one interdomain link and rebuild the world fresh (same
	// seed => same base topology) for both incremental and scratch runs.
	mutate := func(tt *testing.T) (*topo.Network, *probe.Engine, *Driver) {
		tt.Helper()
		n, e, view, hosts := setup(tt, 9)
		ils := n.InterdomainLinks(n.HostASN)
		if len(ils) == 0 {
			tt.Skip("no interdomain links to depeer")
		}
		topo.Depeer(n, ils[len(ils)-1].FarAS)
		n.Build()
		return n, e, &Driver{View: view, Prober: LocalProber{E: e, VP: n.VPs[0]}, HostASNs: hosts}
	}

	_, _, dInc := mutate(t)
	dInc.Cfg = Config{State: st}
	dsInc := dInc.Run()

	_, _, dScr := mutate(t)
	dsScr := dScr.Run()

	if dsInc.TraceFingerprint() != dsScr.TraceFingerprint() {
		t.Fatal("incremental trace fingerprint differs from scratch on mutated world")
	}
	if !reflect.DeepEqual(stripVolatile(dsInc.Traces), stripVolatile(dsScr.Traces)) {
		t.Fatal("incremental traces differ from scratch on mutated world")
	}
	if !sameVerdicts(dsInc.Resolver, dsScr.Resolver) {
		t.Fatal("incremental alias verdicts differ from scratch on mutated world")
	}

	// Every address appearing only in changed traces must be dirty; every
	// address of a fully-replayed target must not leak probes.
	if dsInc.Dirty == nil {
		t.Fatal("mutated incremental run produced no dirty set")
	}
}

// TestReplayNeverExpires: a trace replays for as long as its path
// signature and stop-set halt hold. Over 20 rounds of an unchanged world on one RoundState,
// every round after the first serves every target from cache and sends no
// probe packet at all.
func TestReplayNeverExpires(t *testing.T) {
	st := NewRoundState()
	for round := 1; round <= 20; round++ {
		reg := obs.New()
		newIncSetup(t, 11, st, reg).Run()
		snap := reg.Snapshot()
		targets, hits := snap.Counter("driver.targets"), snap.Counter("rounds.cache.hit")
		misses, packets := snap.Counter("rounds.cache.miss"), snap.Counter("probe.packets_sent")
		if round == 1 {
			if targets == 0 || misses != targets {
				t.Fatalf("round 1: %d targets, %d misses: want every target walked live", targets, misses)
			}
			continue
		}
		if hits != targets || misses != 0 || packets != 0 {
			t.Fatalf("round %d: %d of %d targets hit, %d missed, %d probe packets sent; want all hits and no packet",
				round, hits, targets, misses, packets)
		}
	}
}

// PathSignature must be stable across calls and clock advances on an
// unchanged world, and change when the world changes.
func TestPathSignatureStability(t *testing.T) {
	n, e, view, hosts := setup(t, 13)
	_ = hosts
	targets := Targets(view, map[topo.ASN]bool{n.HostASN: true})
	if len(targets) == 0 {
		t.Fatal("no targets")
	}
	dst := targets[0].Blocks[0].First + 1
	vp := n.VPs[0]
	s1 := e.PathSignature(vp, dst)
	lane := e.NewLane(vp, 0)
	lane.Advance(probe.PacePerHop * 100)
	lane.Trace(dst, nil, nil)
	if s2 := e.PathSignature(vp, dst); s2 != s1 {
		t.Fatalf("signature changed on unchanged world: %x vs %x", s1, s2)
	}

	// Same seed, mutated world: the signature of a destination whose path
	// crossed the removed peer must change.
	n2, e2, view2, _ := setup(t, 13)
	ils := n2.InterdomainLinks(n2.HostASN)
	if len(ils) == 0 {
		t.Skip("no interdomain links")
	}
	topo.Depeer(n2, ils[len(ils)-1].FarAS)
	n2.Build()
	_ = view2
	changed := false
	for _, tg := range targets {
		for _, b := range tg.Blocks {
			d := b.First + 1
			if e.PathSignature(vp, d) != e2.PathSignature(n2.VPs[0], d) {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("no destination signature changed after depeering")
	}
}

// TestRoundStateForgetsDeprovisionedNeighbor: cross-round state is this
// round's measurements and nothing older. Over eight churn rounds on r&e
// (odd rounds attach a customer, even rounds de-provision a neighbor, as
// mapdb's rounds loop does), the round that measures a de-provisioning
// leaves no trace — in cached traces or alias verdicts — of the addresses only
// the departed neighbor's traces had contained.
func TestRoundStateForgetsDeprovisionedNeighbor(t *testing.T) {
	n := topo.Generate(topo.REProfile(), 1)
	st := NewRoundState()
	measure := func() *Dataset {
		tab := bgp.NewTable(n)
		hosts := map[topo.ASN]bool{n.HostASN: true}
		for _, s := range n.Siblings(n.HostASN) {
			hosts[s] = true
		}
		d := &Driver{
			View:     bgp.Collect(tab, bgp.DefaultVantages(n)),
			Prober:   LocalProber{E: probe.New(n, tab), VP: n.VPs[0]},
			HostASNs: hosts,
			Cfg:      Config{State: st},
		}
		return d.Run()
	}
	// hopAddrs maps every address a dataset's traces contain to the one
	// target AS whose traces contain it, or to 0 when several do.
	hopAddrs := func(ds *Dataset) map[netx.Addr]topo.ASN {
		out := make(map[netx.Addr]topo.ASN)
		for _, tr := range ds.Traces {
			for _, h := range tr.Hops {
				if h.Addr.IsZero() {
					continue
				}
				if as, seen := out[h.Addr]; seen && as != tr.TargetAS {
					out[h.Addr] = 0
				} else if !seen {
					out[h.Addr] = tr.TargetAS
				}
			}
		}
		return out
	}

	before := hopAddrs(measure())
	forgotten := 0
	for r := 1; r <= 8; r++ {
		var victim topo.ASN
		ils := n.InterdomainLinks(n.HostASN)
		if r%2 == 1 {
			if _, err := topo.AttachCustomer(n, ils[0].NearRtr, topo.ASN(65000+r)); err != nil {
				t.Fatal(err)
			}
		} else {
			victim = ils[(r*7)%len(ils)].FarAS
			topo.Depeer(n, victim)
		}
		n.Build()
		now := hopAddrs(measure())
		if victim != 0 {
			gone := make(map[netx.Addr]bool)
			for a, as := range before {
				if _, still := now[a]; as == victim && !still {
					gone[a] = true
				}
			}
			forgotten += len(gone)
			st.eachAddr(func(a netx.Addr) {
				if gone[a] {
					t.Errorf("round %d: state still holds %v, seen only toward de-provisioned %v", r, a, victim)
					delete(gone, a) // once per address
				}
			})
		}
		before = now
	}
	if forgotten == 0 {
		t.Fatal("no de-provisioning removed an address from the traces: nothing was checked")
	}
}

// TestIncrementalRoundsWorkerInvariant: the lane count never reaches what
// cross-round state replays. One RoundState carried through four churn
// rounds on r&e (baseline, then attach, de-provision, attach, as mapdb's
// rounds loop does) must give the same per-round trace fingerprints on 1
// worker as on 4, with every round after the first replaying from cache.
func TestIncrementalRoundsWorkerInvariant(t *testing.T) {
	rounds := func(workers int) []uint64 {
		n := topo.Generate(topo.REProfile(), 1)
		st := NewRoundState()
		var fps []uint64
		for r := range 4 {
			if r > 0 {
				ils := n.InterdomainLinks(n.HostASN)
				if r%2 == 1 {
					if _, err := topo.AttachCustomer(n, ils[0].NearRtr, topo.ASN(65000+r)); err != nil {
						t.Fatal(err)
					}
				} else {
					topo.Depeer(n, ils[(r*7)%len(ils)].FarAS)
				}
				n.Build()
			}
			tab := bgp.NewTable(n)
			ds := (&Driver{
				View:     bgp.Collect(tab, bgp.DefaultVantages(n)),
				Prober:   LocalProber{E: probe.New(n, tab), VP: n.VPs[0]},
				HostASNs: map[topo.ASN]bool{n.HostASN: true},
				Cfg:      Config{Workers: workers, State: st},
			}).Run()
			if r > 0 && ds.Stats.TracesCached == 0 {
				t.Fatalf("workers %d round %d replayed nothing: the state was not carried", workers, r)
			}
			fps = append(fps, ds.TraceFingerprint())
		}
		return fps
	}
	w1, w4 := rounds(1), rounds(4)
	for r := range w1 {
		if w1[r] != w4[r] {
			t.Errorf("round %d: trace fingerprint %016x on 1 worker, %016x on 4", r, w1[r], w4[r])
		}
	}
}
