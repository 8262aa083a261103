package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bdrmap/internal/asrel"
	"bdrmap/internal/bgp"
	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/ixp"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/obs"
	"bdrmap/internal/rir"
	"bdrmap/internal/scamper"
	"bdrmap/internal/sibling"
	"bdrmap/internal/topo"
)

// setOpStats records an op's measured median, tail and rate as the
// per-layer op.* metrics, and median and rate at reference speed (see
// speed.go) as the end-to-end ones.
func setOpStats(c *runCtx, r *result, p50us, tailus, perS float64) {
	m, k := r.metrics, c.ref.scale()
	m["op.p50_us"], m["op.tail_us"], m["op.per_s"] = p50us, tailus, perS
	m["op_p50_us"], m["ops_per_s"] = p50us*k, perS/k
	m["bench.ref_kernel_us"] = c.ref.kernelUS()
	r.infof("reference kernel: median %.1f us over %d bursts of %v (IQR %.1f us); wall-time metrics scaled by %.3f to reference speed (%.0f us)",
		c.ref.kernelUS(), len(c.ref.us), c.ref.length, iqr(c.ref.us), k, refNominalUS)
}

// opStats fills the end-to-end timing metrics from per-op wall times in
// ns. tailQ is the workload's tail percentile; when the sample cannot
// carry it (fewer than ten samples beyond) the info line says so.
func opStats(c *runCtx, r *result, wallsNS []float64, tailQ float64) {
	s := sortedCopy(wallsNS)
	var sum float64
	for _, v := range s {
		sum += v
	}
	setOpStats(c, r, percentile(s, 0.5)/1e3, percentile(s, tailQ)/1e3, float64(len(s))/(sum/1e9))
	note := ""
	if sup := supportedTail(len(s)); sup == 0 {
		note = " — too few samples for any percentile to have ten beyond it; the tail is indicative only"
	} else if sup < tailQ {
		note = fmt.Sprintf(" — %d samples carry at most p%g; the tail is indicative only", len(s), 100*sup)
	}
	r.infof("op timings as measured: n=%d, p50 %.1f us, p%g %.1f us, IQR %.1f us%s", len(s), percentile(s, 0.5)/1e3, 100*tailQ, percentile(s, tailQ)/1e3, iqr(s)/1e3, note)
}

// stageMS is a program stage timer's total wall time in ms.
func stageMS(s obs.Snapshot, name string) float64 { return float64(s.Stage(name).WallNS) / 1e6 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// pipelineLayers fills the measurement, inference and scheduling layer
// metrics from the program's own public counters, stage timers and span
// log, as per-generation means over gens generations.
func pipelineLayers(r *result, snap obs.Snapshot, spans []obs.SpanRecord, gens int) {
	g := float64(gens)
	m := r.metrics
	m["probe.wall_ms"] = stageMS(snap, "driver.probe") / g
	m["probe.packets"] = float64(snap.Counter("probe.packets_sent")) / g
	// traces_live is only counted with cross-round caching on; without
	// it every trace is live.
	live := snap.Counter("driver.traces") - snap.Counter("driver.traces_cached")
	m["probe.traceroutes"] = float64(live) / g
	if p := snap.Counter("probe.packets_sent"); p > 0 {
		m["probe.ns_per_packet"] = float64(snap.Stage("driver.probe").WallNS) / float64(p)
	}
	m["scamper.traces_live"] = float64(live) / g
	m["scamper.traces_cached"] = float64(snap.Counter("driver.traces_cached")) / g
	m["scamper.traces_stopped"] = float64(snap.Counter("driver.traces_stopped")) / g
	m["scamper.stopset_saved_ratio"] = ratio(snap.Counter("driver.traces_stopped"), snap.Counter("driver.traces"))
	hit, miss := snap.Counter("rounds.cache.hit"), snap.Counter("rounds.cache.miss")
	m["scamper.cache_hit_ratio"] = ratio(hit, hit+miss)
	m["alias.wall_ms"] = stageMS(snap, "driver.alias") / g
	m["alias.pairs"] = float64(snap.Counter("driver.alias.pairs")) / g
	m["alias.replayed"] = float64(snap.Counter("rounds.alias.replayed")) / g
	if p := snap.Counter("driver.alias.pairs"); p > 0 {
		m["alias.ns_per_pair"] = float64(snap.Stage("driver.alias").WallNS) / float64(p)
	}
	m["core.infer_ms"] = stageMS(snap, "core.infer") / g
	m["core.routers"] = float64(snap.Counter("core.routers")) / g
	m["core.links"] = float64(snap.Counter("core.links")) / g
	spliced, dirty := snap.Counter("core.inc.spliced"), snap.Counter("core.inc.dirty_nodes")
	m["core.spliced_ratio"] = ratio(spliced, spliced+dirty)
	m["fleet.shards"] = float64(snap.Counter("fleet.shards")) / g
	m["fleet.steals"] = float64(snap.Counter("fleet.steals")) / g
	m["fleet.retries"] = float64(snap.Counter("fleet.retries")) / g

	var fleetNS, vpNS, inferNS int64
	for _, sp := range spans {
		switch {
		case sp.Name == "fleet":
			fleetNS += sp.WallNS
		case sp.Name == "vp":
			vpNS += sp.WallNS
		case sp.Name == "stage" && sp.Detail == "infer":
			inferNS += sp.WallNS
		}
	}
	m["fleet.run_ms"] = float64(fleetNS) / 1e6 / g
	m["fleet.self_ms"] = float64(fleetNS-vpNS) / 1e6 / g
	// A vp span is Driver.Run followed by core.Infer.
	m["scamper.run_ms"] = float64(vpNS-inferNS) / 1e6 / g
}

// measured runs fn under a span and returns its wall time and heap
// allocation.
func measured(tr *tracer, parent int, name string, fn func()) (time.Duration, uint64) {
	sp := tr.begin(0, parent, name)
	a0, t0 := allocBytes(), time.Now()
	fn()
	d, a := time.Since(t0), allocBytes()-a0
	sp.end()
	return d, a
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// pipelineProbes times each world-build and inference layer by calling
// its public functions directly, on the same (profile, seed) the workload
// measured: the pieces eval.BuildFromNetwork runs as one call, one VP run
// split into its driver and inference halves, and the merge and compile
// of results (the workload's last generation).
func pipelineProbes(c *runCtx, r *result, prof topo.Profile, results []*core.Result) {
	tr, m, seed := c.tr, r.metrics, c.p.worldSeed
	root := tr.begin(0, 0, "layers")
	defer root.end()
	// The world-build calls are short enough for one slow moment of the
	// host to double: each runs three times and reports its median.
	med3 := func(name string, fn func()) (time.Duration, uint64) {
		var ds []float64
		var alloc uint64
		for i := 0; i < 3; i++ {
			d, a := measured(tr, root.id, name, fn)
			ds, alloc = append(ds, float64(d)), a
		}
		return time.Duration(median(ds)), alloc
	}

	var n *topo.Network
	d, _ := med3("topo.generate", func() { n = topo.Generate(prof, seed) })
	m["topo.generate_ms"] = ms(d)
	m["topo.routers"] = float64(len(n.Routers))

	var tab *bgp.Table
	var view *bgp.View
	d, _ = med3("bgp.table", func() { tab = bgp.NewTable(n) })
	m["bgp.table_ms"] = ms(d)
	// A table caches the routes it has computed, so each Collect gets a
	// fresh one and the table's own cost is taken off.
	d, a := med3("bgp.collect", func() { view = bgp.Collect(bgp.NewTable(n), bgp.DefaultVantages(n)) })
	m["bgp.collect_ms"] = ms(d) - m["bgp.table_ms"]
	m["bgp.prefixes"] = float64(len(tab.Prefixes()))
	m["bgp.alloc_mb"] = float64(a) / 1e6

	d, _ = med3("asrel.infer", func() { asrel.Infer(view) })
	m["asrel.infer_ms"] = ms(d)

	d, _ = med3("inputs.derive", func() {
		rir.FromNetwork(n)
		ixp.Merge(ixp.FromNetwork(n, seed))
		sibling.FromNetwork(n, seed).CurateHost(n)
	})
	m["inputs.derive_ms"] = ms(d)

	var s *eval.Scenario
	d, a = med3("eval.build", func() { s = eval.BuildFromNetwork(n, seed) })
	m["eval.build_ms"] = ms(d)
	m["eval.build_alloc_mb"] = float64(a) / 1e6
	parts := m["bgp.table_ms"] + m["bgp.collect_ms"] + m["asrel.infer_ms"] + m["inputs.derive_ms"]
	r.infof("eval.BuildFromNetwork %.1f ms against %.1f ms for its parts called one by one (%+.0f%%)", m["eval.build_ms"], parts, 100*(m["eval.build_ms"]-parts)/parts)

	var ds *scamper.Dataset
	_, a = measured(tr, root.id, "scamper.run", func() {
		ds = (&scamper.Driver{
			View: s.View, Prober: scamper.LocalProber{E: s.Engine, VP: n.VPs[0]},
			HostASNs: s.HostASNs, Obs: s.Obs, Trace: s.Trace, Spans: s.Spans, SpanParent: s.SpanRoot.ID(),
		}).Run()
	})
	m["scamper.alloc_mb"] = float64(a) / 1e6
	_, a = measured(tr, root.id, "core.infer", func() {
		core.Infer(core.Input{
			Data: ds, View: s.View, Rel: s.Rel, RIR: s.RIR, IXP: s.IXP,
			HostASN: n.HostASN, Siblings: s.Sibs, Obs: s.Obs, Trace: s.Trace,
			Spans: s.Spans, SpanParent: s.SpanRoot.ID(),
		})
	})
	m["core.infer_alloc_kb"] = float64(a) / 1024

	d, _ = measured(tr, root.id, "core.merge", func() { core.Merge(results) })
	m["core.merge_ms"] = ms(d)
	d, a = measured(tr, root.id, "mapdb.compile", func() { mapdb.Compile(n.HostASN, results) })
	m["mapdb.compile_us"] = us(d)
	m["mapdb.compile_alloc_kb"] = float64(a) / 1024

	// What a round pays to re-index the world after one mutation.
	if links := n.InterdomainLinks(n.HostASN); len(links) > 0 {
		if _, err := topo.AttachCustomer(n, links[0].NearRtr, 64999); err == nil {
			d, _ = measured(tr, root.id, "topo.rebuild", func() { n.Build() })
			m["topo.rebuild_ms"] = ms(d)
		}
	}
}

func runColdMap(c *runCtx) (*result, error) {
	prof, err := profile(c.p.coldProfile, c.p.coldVPs)
	if err != nil {
		return nil, err
	}
	r := newResult()

	// Set-up is warm-up: one untimed generation grows the heap to its
	// working size and faults the pages in. Its outputs are the reference
	// every timed repetition must reproduce.
	var ref *builtMap
	err = c.timeSetups(r, func(i int) error {
		m, err := buildMap(prof, c.p.worldSeed, nil, nil, 0)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = m
		} else if !m.sameOutput(ref) {
			r.problemf("warm-up %d: output differs from the first warm-up", i)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	acc, correct, total, validateTook := accuracy(ref.s)
	r.metrics["link_accuracy"] = acc
	r.metrics["gen_packets"] = float64(ref.packets)
	r.infof("world %s seed %d, %d VPs: %d packets, %d links, %d/%d correct; link fp %016x trace fp %016x",
		prof.Name, c.p.worldSeed, len(ref.s.Net.VPs), ref.packets, ref.snap.NumLinks(), correct, total, ref.linkFP, ref.traceFP)

	// The seed permutes the VP run order: an input the output may not
	// depend on, so every seed checks the same fingerprints.
	rng := rand.New(rand.NewSource(c.seed))
	var walls, allocs, tracedWalls []float64
	var last *builtMap
	gc0, start := gcPauseNS(), time.Now()
	for rep := 0; time.Since(start) < c.seconds || (c.traced() && rep < 2); rep++ {
		var tr *tracer
		if rep%2 == 1 {
			tr = c.tr // the traced pass alternates spans off and on
		}
		order := rng.Perm(len(ref.s.Net.VPs))
		runtime.GC()
		c.ref.burst()
		a0, t0 := allocBytes(), time.Now()
		m, err := buildMap(prof, c.p.worldSeed, order, tr, rep)
		wall, alloc := time.Since(t0), allocBytes()-a0
		if err != nil {
			return nil, err
		}
		r.attempted++
		if !m.sameOutput(ref) {
			r.failed++
			r.problemf("repetition %d (VP order %v): link fp %016x trace fp %016x packets %d differ from the reference",
				rep, order, m.linkFP, m.traceFP, m.packets)
		}
		if tr != nil {
			tracedWalls = append(tracedWalls, float64(wall))
			last = m
			continue
		}
		walls = append(walls, float64(wall))
		allocs = append(allocs, float64(alloc)/1024)
	}
	c.ref.burst()
	r.metrics["gc.pause_total_ms"] = (gcPauseNS() - gc0) / 1e6
	opStats(c, r, walls, 0.90)
	r.metrics["alloc_kb_per_op"] = median(allocs)

	if c.traced() {
		r.metrics["trace.overhead_pct"] = 100 * (median(tracedWalls) - median(walls)) / median(walls)
		r.metrics["eval.validate_ms"] = ms(validateTook)
		pipelineLayers(r, last.s.Obs.Snapshot(), last.s.Spans.Records(), 1)
		pipelineProbes(c, r, prof, last.s.Results)
	}
	return r, nil
}

// roundsRep is one RunRounds repetition as seen from outside.
type roundsRep struct {
	events  []mapdb.RoundEvent
	wallsNS []float64 // per round, publish to publish
	allocs  []float64 // bytes per round, sampled at each publish
	obs     obs.Snapshot
	last    *eval.Scenario
	store   *mapdb.Store
	startNS int64 // tracer time RunRounds was called at
}

// runRounds runs one repetition of the continuous-monitoring loop into a
// durable store in dir. Rounds are timed from outside by subscribing to
// the store: a round ends when its generation is published.
func runRounds(c *runCtx, prof topo.Profile, rounds int, verify bool, dir string, spans *obs.SpanLog) (*roundsRep, error) {
	st, err := mapdb.OpenStore(dir, 0, obs.New())
	if err != nil {
		return nil, err
	}
	// The buffer holds every round, so a late collector is never dropped
	// as a lagging watcher.
	ch, cancel, _ := st.Watch(rounds + 1)
	defer cancel()
	rep := &roundsRep{store: st, startNS: c.tr.now()}
	collected, stop := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(collected)
		prevT, prevA := time.Now(), allocBytes()
		for len(rep.wallsNS) < rounds {
			select {
			case <-ch:
			case <-stop:
				return
			}
			t, a := time.Now(), allocBytes()
			rep.wallsNS = append(rep.wallsNS, float64(t.Sub(prevT)))
			rep.allocs = append(rep.allocs, float64(a-prevA))
			prevT, prevA = t, a
		}
	}()
	reg := obs.New()
	rep.events, rep.last, err = mapdb.RunRoundsFull(mapdb.RoundsConfig{
		Profile: prof, Seed: c.p.worldSeed, Rounds: rounds,
		Incremental: true, Verify: verify, Obs: reg, Spans: spans,
	}, st)
	if err != nil {
		close(stop)
		<-collected
		return nil, fmt.Errorf("RunRounds: %w", err)
	}
	<-collected
	rep.obs = reg.Snapshot()
	return rep, nil
}

func sameFPs(a, b []mapdb.RoundEvent) bool {
	for i := range a {
		if i < len(b) && a[i].TraceFP != b[i].TraceFP {
			return false
		}
	}
	return true
}

func runRoundsChurn(c *runCtx) (*result, error) {
	prof, err := profile(c.p.roundsProfile, 0)
	if err != nil {
		return nil, err
	}
	r := newResult()
	dirN := 0
	newDir := func() string {
		dirN++
		return filepath.Join(c.tmp, fmt.Sprintf("rounds-%d", dirN))
	}

	// Set-up: a short repetition with Verify on — every incremental round
	// re-run from scratch on a shadow world and compared byte for byte —
	// and a one-round run that fixes what the baseline round costs, so the
	// timed repetitions' incremental rounds can be counted exactly.
	var verified, baseline *roundsRep
	err = c.timeSetups(r, func(int) error {
		dv, db := newDir(), newDir()
		defer os.RemoveAll(dv)
		defer os.RemoveAll(db)
		var err error
		if verified, err = runRounds(c, prof, c.p.verifyRounds, true, dv, nil); err != nil {
			return fmt.Errorf("verify repetition: %w", err)
		}
		baseline, err = runRounds(c, prof, 1, false, db, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	firstPackets := baseline.obs.Counter("probe.packets_sent")

	var walls, allocs, tracedWalls []float64
	var ref, last *roundsRep
	var lastSpans []obs.SpanRecord
	var incRounds, incPackets int64
	gc0, start := gcPauseNS(), time.Now()
	for rep := 0; time.Since(start) < c.seconds || (c.traced() && rep < 2); rep++ {
		var spans *obs.SpanLog
		if c.traced() && rep%2 == 1 {
			// The traced pass alternates the program's span log off and
			// on; big enough that per-target spans cannot wrap the ring.
			spans = obs.NewSpanLog(1 << 20)
		}
		runtime.GC()
		c.ref.burst()
		rr, err := runRounds(c, prof, c.p.rounds, false, newDir(), spans)
		if err != nil {
			return nil, err
		}
		if last != nil {
			os.RemoveAll(last.store.Dir())
		}
		last = rr
		r.attempted += int64(len(rr.events))
		if ref == nil {
			ref = rr
			if !sameFPs(verified.events, rr.events) {
				r.problemf("verified repetition's trace fingerprints are not a prefix of the timed one's")
			}
		} else if len(rr.events) != len(ref.events) || !sameFPs(ref.events, rr.events) {
			r.failed += int64(len(rr.events))
			r.problemf("repetition %d: RoundEvent.TraceFP sequence differs from repetition 0", rep)
		}
		inc := rr.wallsNS[1:]
		if spans != nil {
			tracedWalls = append(tracedWalls, inc...)
			lastSpans = spans.Records()
			root := c.tr.add(rep, 0, "rounds.rep", rr.startNS, c.tr.now())
			c.tr.graft(rep, root, rr.startNS, lastSpans, 0)
			continue
		}
		walls = append(walls, inc...)
		for _, a := range rr.allocs[1:] {
			allocs = append(allocs, a/1024)
		}
		incRounds += int64(len(inc))
		incPackets += rr.obs.Counter("probe.packets_sent") - firstPackets
	}
	defer func() { os.RemoveAll(last.store.Dir()) }()
	c.ref.burst()
	r.metrics["gc.pause_total_ms"] = (gcPauseNS() - gc0) / 1e6
	opStats(c, r, walls, 0.95)
	r.metrics["alloc_kb_per_op"] = median(allocs)
	r.metrics["gen_packets"] = float64(incPackets) / float64(incRounds)
	acc, correct, total, validateTook := accuracy(last.last)
	r.metrics["link_accuracy"] = acc
	r.infof("world %s seed %d: %d rounds per repetition, baseline round %d packets, then %.1f per incremental round; last generation %d/%d correct; trace fp of round %d %016x",
		prof.Name, c.p.worldSeed, c.p.rounds, firstPackets, r.metrics["gen_packets"], correct, total, len(ref.events), ref.events[len(ref.events)-1].TraceFP)

	if c.traced() {
		r.metrics["trace.overhead_pct"] = 100 * (median(tracedWalls) - median(walls)) / median(walls)
		r.metrics["eval.validate_ms"] = ms(validateTook)
		r.metrics["rounds.first_ms"] = last.wallsNS[0] / 1e6
		pipelineLayers(r, last.obs, lastSpans, len(last.events))
		pipelineProbes(c, r, prof, last.last.Results)
		if err := storeProbes(c, r, last.store); err != nil {
			return nil, err
		}
	}
	return r, nil
}
