package scamper

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"bdrmap/internal/alias"
	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// maxPairsPerAddr bounds Ally work per predecessor address: among the
// addresses seen after one hop, at most this many candidate pairs are
// resolved.
const maxPairsPerAddr = 6

// Config tunes the driver. The zero value selects the paper's parameters.
type Config struct {
	// MaxAddrsPerBlock bounds the §5.3 retry rule (default 5).
	MaxAddrsPerBlock int
	// Workers is the number of target ASes probed concurrently (default 4).
	Workers int
	// DisableStopSet turns off doubletree early stopping (ablation).
	DisableStopSet bool
	// DisableAlias skips alias resolution entirely (ablation, fig. 13).
	DisableAlias bool
	// AliasCfg tunes the alias resolver.
	AliasCfg alias.Config
	// State enables cross-round incremental probing: the driver replays
	// the previous round's per-target transcripts wherever path signatures
	// are unchanged, persisting the doubletree stop set (§5.2) across
	// rounds instead of rebuilding it. Replay is validated against
	// LocalProber.PathSignature, so State needs a LocalProber: Run panics
	// on any other prober. Every cached target is re-walked live at least
	// every DefaultRefreshEvery rounds.
	State *RoundState
}

func (c Config) withDefaults() Config {
	if c.MaxAddrsPerBlock <= 0 {
		c.MaxAddrsPerBlock = 5
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	return c
}

// Target is one AS's probing work: the address blocks it originates.
type Target struct {
	AS     topo.ASN
	Blocks []netx.Block
}

// TraceRecord is one collected traceroute annotated with its target.
type TraceRecord struct {
	probe.TraceResult
	TargetAS topo.ASN
}

// Dataset is everything one vantage point's measurement run produced.
type Dataset struct {
	VPName   string
	Traces   []TraceRecord
	Resolver *alias.Resolver
	// Graph is the alias graph, nil when Config.DisableAlias is set.
	Graph *alias.Graph
	Stats RunStats
	// Dirty is the set of interface addresses whose trace evidence changed
	// since the previous round: every address appearing in the current or
	// prior transcript of any target that was not served fully from cache.
	// The alias stage replays a memoized verdict only when none of its
	// addresses is dirty. It is nil when cross-round caching is off, which
	// reads as "everything is dirty".
	Dirty map[netx.Addr]bool
}

// RunStats summarizes the probing effort.
type RunStats struct {
	Targets       int
	Traces        int
	TracesStopped int // halted by the stop set
	HopsObserved  int
	AliasPairsRun int
	AddrsObserved int
	// TargetsLost counts targets abandoned because the prober's session
	// died (graceful degradation).
	TargetsLost int
	// TracesLive / TracesCached split Traces when cross-round caching is
	// active (Config.State): a cached trace was replayed from the previous
	// round's transcript without spending a single probe packet.
	TracesLive   int
	TracesCached int
	// CacheHits / CacheMisses / CacheRefreshes count whole targets served
	// entirely from cache, re-walked (no memo, changed plan, or signature
	// divergence), or force-re-walked by the refresh cadence.
	CacheHits      int
	CacheMisses    int
	CacheRefreshes int
	// AliasOpsReplayed counts alias-stage operations (Mercator probes,
	// Ally resolutions, Prefixscans) replayed from the cross-round memo.
	AliasOpsReplayed int
	// SimDuration is how much simulated measurement time the run took
	// (the paper reports 12-48h wall-clock at 100 packets/second).
	SimDuration time.Duration
}

// Targets assembles the probing plan from the public view (§5.3): for every
// routed prefix not originated by the host network, the address blocks left
// after carving out more-specific routed prefixes, grouped by origin AS.
func Targets(view *bgp.View, hostASNs map[topo.ASN]bool) []Target {
	routed := view.RoutedPrefixes()
	byAS := make(map[topo.ASN][]netx.Block)
	for i, p := range routed {
		origins := view.OriginsExact(p)
		if len(origins) == 0 {
			continue
		}
		hostOwned := true
		for _, o := range origins {
			if !hostASNs[o] {
				hostOwned = false
				break
			}
		}
		if hostOwned {
			continue
		}
		// Carve out more-specific routed prefixes. routed is sorted by
		// (base, length), so they are the run right after p whose bases
		// fall within it.
		last := p.Last()
		var ms []netx.Prefix
		for _, q := range routed[i+1:] {
			if q.Base > last {
				break
			}
			if p.ContainsPrefix(q) {
				ms = append(ms, q)
			}
		}
		blocks := netx.CarveBlocks(p, ms)
		target := origins[0]
		byAS[target] = append(byAS[target], blocks...)
	}
	out := make([]Target, 0, len(byAS))
	for asn, blocks := range byAS {
		sort.Slice(blocks, func(i, j int) bool { return blocks[i].First < blocks[j].First })
		out = append(out, Target{AS: asn, Blocks: blocks})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AS < out[j].AS })
	return out
}

// Driver runs the full measurement schedule for one vantage point.
type Driver struct {
	View     *bgp.View
	Prober   Prober
	HostASNs map[topo.ASN]bool
	Cfg      Config
	// Obs receives the driver's pipeline metrics (per-stage simulated and
	// wall-clock time, trace/stop-set/alias counters). Nil disables them.
	Obs *obs.Registry
	// Trace receives per-trace provenance events (target lifecycle, hop
	// responses, stop-set hits, alias verdicts). Nil disables them.
	// Probe-stage events carry per-target-relative sim timestamps and are
	// merged in target order, so for a fixed seed the stream is identical
	// across worker counts.
	Trace *obs.Tracer
	// Spans receives the hierarchical span timeline: one "stage" span each
	// for probing and alias resolution (parented under SpanParent) and one
	// "target" span per probed AS underneath the probe stage. Target spans
	// are written from the per-target slots in target order after the
	// worker barrier, so — like the Trace stream — the span tree is
	// identical across worker counts. Nil disables them.
	Spans *obs.SpanLog
	// SpanParent is the span the driver's stage spans attach under
	// (typically the enclosing "vp" span; 0 makes them roots).
	SpanParent obs.SpanID
}

// Run executes probing and alias resolution, returning the dataset.
func (d *Driver) Run() *Dataset {
	cfg := d.Cfg.withDefaults()
	simStart := d.Prober.Now()
	targets := Targets(d.View, d.HostASNs)
	ds := &Dataset{VPName: d.Prober.Name()}
	ds.Stats.Targets = len(targets)
	d.Obs.Add("driver.targets", int64(len(targets)))

	// Cross-round cache setup: validate each target's prior transcript
	// (plan unchanged, refresh cadence not due) single-threaded before the
	// workers start; the workers only read their own replay slot.
	st := cfg.State
	replays := make([]*targetReplay, len(targets)) // all nil without State: every trace runs live
	if st != nil {
		lp, ok := d.Prober.(LocalProber)
		if !ok {
			panic(fmt.Sprintf("scamper: Config.State needs a LocalProber, got %T", d.Prober))
		}
		st.Acquire(d.Prober.Name())
		defer st.Release()
		st.round++
		for i, t := range targets {
			key := blocksKey(t.Blocks)
			rp := &targetReplay{sp: lp, next: &targetMemo{blocksKey: key, lastWalk: st.round}}
			if m := st.targets[t.AS]; m != nil {
				rp.all = m.traces
				// This round's transcript is about as long as the last.
				rp.next.traces = make([]cachedTrace, 0, len(m.traces))
				switch {
				case m.blocksKey != key:
					// The §5.3 block plan moved; the transcript no
					// longer describes this round's schedule.
				case st.round-m.lastWalk >= DefaultRefreshEvery:
					rp.refresh = true
				default:
					rp.prior = m
				}
			}
			replays[i] = rp
		}
	}

	probeSpan := d.Obs.StartStage("driver.probe")
	probeSp := d.Spans.Begin(d.SpanParent, "stage", "probe")
	probeSp.SetAttr("targets", len(targets))
	// One slot per target, written by exactly one worker. The SUM of the
	// slots' simulated durations is the probe stage span's duration on the
	// canonical serialized timeline (a sum is partition-invariant, unlike
	// the max-lane probeSim below, which depends on how targets land on
	// workers).
	outs := make([]targetOut, len(targets))
	// Per-worker provenance logs: a worker emits every event of its targets
	// into its own log and each slot notes where its target's events end.
	// After the barrier the logs are cut at those positions and folded into
	// d.Trace in target order — the merged stream is independent of which
	// worker finished first.
	wlogs := make([]*obs.Tracer, cfg.Workers)

	// Worker w handles targets w, w+W, w+2W, … on lanes[w], so each slot and
	// each lane is touched by exactly one worker and the merge below needs
	// no locks and no ordering. A remote session has no lanes: its workers
	// share the agent's clock and stamp events with SimNS 0 — reading the
	// remote clock per event would perturb the frame stream the fault
	// goldens pin.
	lanes := make([]*probe.Lane, cfg.Workers)
	var wg sync.WaitGroup
	for w := range lanes {
		lanes[w] = d.Prober.NewLane(simStart)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if d.Trace.Enabled() {
				wlogs[w] = obs.NewTracer()
			}
			for i := w; i < len(targets); i += cfg.Workers {
				outs[i] = d.probeTarget(targets[i], cfg, lanes[w], wlogs[w], replays[i])
			}
		}(w)
	}
	wg.Wait()
	// The run's simulated duration is the slowest worker's timeline. Push
	// the shared clock to its end so the alias stage (and any later run)
	// starts at a well-defined time.
	clocked := lanes[0] != nil
	simEnd := simStart
	if clocked {
		for _, lane := range lanes {
			simEnd = max(simEnd, lane.Now())
		}
		if simEnd > simStart {
			d.Prober.Advance(simEnd - simStart)
		}
	} else {
		simEnd = max(simEnd, d.Prober.Now())
	}

	var targetSimNS int64
	traces := 0
	for _, o := range outs {
		traces += len(o.recs)
	}
	ds.Traces = slices.Grow(ds.Traces, traces)
	for i, o := range outs {
		ds.Traces = append(ds.Traces, o.recs...)
		ds.Stats.TracesStopped += o.stopped
		if o.lost {
			ds.Stats.TargetsLost++
		}
		targetSimNS += o.simNS
		// Target i's events follow target i-Workers' in their worker's log.
		var from obs.Pos
		if i >= cfg.Workers {
			from = outs[i-cfg.Workers].cut
		}
		d.Trace.MergeRange(wlogs[i%cfg.Workers], from, o.cut)
	}
	d.Spans.MergeRecords(d.targetSpans(targets, outs), probeSp.ID())
	ds.Stats.Traces = len(ds.Traces)
	for _, tr := range ds.Traces {
		ds.Stats.HopsObserved += len(tr.Hops)
	}

	// Fold this round's transcripts back into the cross-round state
	// (single-threaded, after the barrier) and derive the dirty-address
	// set the alias stage keys its replay off.
	if st != nil {
		dirty := make(map[netx.Addr]bool)
		markDirty := func(recs []TraceRecord) {
			for _, rec := range recs {
				for _, h := range rec.Hops {
					if h.Type == probe.HopTimeout || h.Addr.IsZero() {
						continue
					}
					dirty[h.Addr] = true
				}
			}
		}
		cachedRecs := func(cts []cachedTrace) []TraceRecord {
			out := make([]TraceRecord, 0, len(cts))
			for _, ct := range cts {
				out = append(out, ct.rec)
			}
			return out
		}
		for i, rp := range replays {
			ds.Stats.TracesLive += rp.live
			ds.Stats.TracesCached += rp.hits
			if rp.fullHit() {
				ds.Stats.CacheHits++
				rp.next.lastWalk = rp.prior.lastWalk // no live walk happened
				st.targets[targets[i].AS] = rp.next
				d.Obs.Inc("rounds.cache.hit")
				continue
			}
			if rp.refresh {
				ds.Stats.CacheRefreshes++
				d.Obs.Inc("rounds.cache.refresh")
			} else {
				ds.Stats.CacheMisses++
				d.Obs.Inc("rounds.cache.miss")
			}
			// The target's evidence changed: everything on the new paths
			// and everything the old paths traversed is dirty — a router
			// can lose a trace without appearing in its replacement.
			markDirty(outs[i].recs)
			markDirty(cachedRecs(rp.all))
			if outs[i].lost {
				// Keep the previous transcript (if any): a dead session is
				// transport state, not a changed world.
				continue
			}
			st.targets[targets[i].AS] = rp.next
		}
		// Targets that vanished from the plan leave stale memos behind;
		// their addresses are dirty and the memos are dropped.
		alive := make(map[topo.ASN]bool, len(targets))
		for _, t := range targets {
			alive[t.AS] = true
		}
		for as, m := range st.targets {
			if !alive[as] {
				markDirty(cachedRecs(m.traces))
				delete(st.targets, as)
			}
		}
		ds.Dirty = dirty
		d.Obs.Add("driver.traces_live", int64(ds.Stats.TracesLive))
		d.Obs.Add("driver.traces_cached", int64(ds.Stats.TracesCached))
	}

	d.Obs.Add("driver.traces", int64(ds.Stats.Traces))
	d.Obs.Add("driver.traces_stopped", int64(ds.Stats.TracesStopped))
	d.Obs.Add("driver.hops_observed", int64(ds.Stats.HopsObserved))
	d.Obs.Max("driver.sim_clock_ns").Observe(int64(simEnd))
	probeSim := simEnd - simStart
	probeSpan.AddSim(probeSim)
	probeSpan.End()
	probeSp.SetAttr("traces", ds.Stats.Traces)
	probeSp.AddSim(time.Duration(targetSimNS))
	probeSp.End()

	aliasSpan := d.Obs.StartStage("driver.alias")
	aliasSp := d.Spans.Begin(d.SpanParent, "stage", "alias")
	aliasStart := d.Prober.Now()
	d.resolveAliases(ds, cfg, st, clocked)
	aliasSim := d.Prober.Now() - aliasStart
	if aliasSim < 0 {
		// A lost remote session reads its clock as zero; don't let that
		// drag the stage duration negative.
		aliasSim = 0
	}
	aliasSpan.AddSim(aliasSim)
	aliasSpan.End()
	aliasSp.SetAttr("pairs", ds.Stats.AliasPairsRun)
	aliasSp.AddSim(aliasSim)
	aliasSp.End()

	// SimDuration is the slowest lane plus the single-threaded alias stage,
	// not a difference of unordered reads of the shared clock.
	ds.Stats.SimDuration = probeSim + aliasSim
	return ds
}

// isExternal reports whether addr maps (in the public view) to an AS
// outside the host organization. Unrouted addresses are not external.
func (d *Driver) isExternal(addr netx.Addr) bool {
	origins, _, ok := d.View.Origins(addr)
	if !ok {
		return false
	}
	for _, o := range origins {
		if !d.HostASNs[o] {
			return true
		}
	}
	return false
}

// targetOut is what probing one target AS produced: the slot its worker
// fills and everything after the barrier reads.
type targetOut struct {
	recs    []TraceRecord
	stopped int   // traces the stop set halted
	lost    bool  // abandoned: the session died
	simNS   int64 // simulated duration, relative to the target's own start
	wallNS  int64
	cut     obs.Pos // where the target's events end in its worker's log
}

// targetSpans renders the slots as "target" span records, IDs 1…T in target
// order, for the span log's owner to merge under the probe stage span. It
// builds nothing when spans are off.
func (d *Driver) targetSpans(targets []Target, outs []targetOut) []obs.SpanRecord {
	if !d.Spans.Enabled() {
		return nil
	}
	recs := make([]obs.SpanRecord, len(outs))
	for i, o := range outs {
		attrs := []obs.Attr{obs.KV("blocks", len(targets[i].Blocks)), obs.KV("traces", len(o.recs))}
		if o.lost {
			attrs = append(attrs, obs.KV("lost", true))
		}
		recs[i] = obs.SpanRecord{
			ID: obs.SpanID(i + 1), Name: "target", Detail: targets[i].AS.String(),
			SimNS: o.simNS, WallNS: o.wallNS, Attrs: attrs,
		}
	}
	return recs
}

// probeTarget runs the per-target-AS schedule: probe each block's first
// address; when the trace shows no external address (or only the probed
// one), try further addresses, up to the configured maximum (§5.3).
// It returns early — reporting the target lost — when the prober's session
// dies, so one dead VP degrades the run instead of hanging it.
func (d *Driver) probeTarget(t Target, cfg Config, lane *probe.Lane, frag *obs.Tracer, rp *targetReplay) targetOut {
	// Event timestamps are relative to this target's own start: trace
	// pacing is a pure function of hop counts, so the relative times are
	// identical no matter which worker (and absolute lane time) ran the
	// target. A prober without lanes stamps zero throughout.
	rel := func() int64 { return 0 }
	if lane != nil {
		start := lane.Now()
		rel = func() int64 { return int64(lane.Now() - start) }
	}
	wallStart := time.Now()
	frag.Emit(obs.KindTarget, obs.OnAS(t.AS), 0, obs.Int(obs.KeyBlocks, len(t.Blocks)))

	var out targetOut
	finish := func() targetOut {
		out.simNS = rel()
		out.wallNS = int64(time.Since(wallStart))
		out.cut = frag.Pos()
		return out
	}
	abandon := func() targetOut {
		d.Obs.Inc("driver.target.lost")
		frag.Emit(obs.KindTargetLost, obs.OnAS(t.AS), rel())
		out.lost = true
		return finish()
	}
	stopSet := make(map[netx.Addr]bool)
	var hopBuf [32]obs.Hop // path evidence, restated per trace
	for bi, b := range t.Blocks {
		tried := 0
		for tried < cfg.MaxAddrsPerBlock {
			if d.Prober.Err() != nil {
				return abandon()
			}
			dst := b.First + netx.Addr(tried) + 1
			if !b.Contains(dst) {
				break
			}
			tried++
			var ss map[netx.Addr]bool
			if !cfg.DisableStopSet {
				ss = stopSet
			}
			// Replay the prior round's transcript while it still matches
			// this schedule position and the destination's path signature;
			// a replayed trace spends zero probe packets. Everything after
			// the splice — stop-set insertion, the §5.3 retry decision —
			// runs the live code on the replayed result, so the control
			// flow (and therefore the stop set) evolves exactly as a
			// from-scratch walk would.
			var res probe.TraceResult
			var sig uint64
			cached := false
			if rp != nil {
				if ct, ok := rp.take(bi, dst); ok {
					res, sig, cached = ct.rec.TraceResult, ct.sig, true
				}
			}
			if !cached {
				res = d.Prober.Trace(dst, ss, lane)
				if len(res.Hops) == 0 && d.Prober.Err() != nil {
					// The session died mid-command; this empty trace is a
					// transport artifact, not a measurement.
					return abandon()
				}
				if rp != nil {
					rp.live++
					sig = rp.sp.PathSignature(dst)
				}
			}
			out.recs = append(out.recs, TraceRecord{TraceResult: res, TargetAS: t.AS})
			if rp != nil {
				rp.record(bi, dst, sig, TraceRecord{TraceResult: res, TargetAS: t.AS})
			}
			frag.Emit(obs.KindTrace, obs.OnAddr(dst), rel(),
				obs.AS(obs.KeyTarget, t.AS),
				obs.Int(obs.KeyHops, len(res.Hops)),
				obs.Path(obs.KeyPath, appendHops(hopBuf[:0], res.Hops)),
				obs.Flag(obs.KeyReached, res.Reached),
				obs.Flag(obs.KeyStopped, res.Stopped),
				obs.Flag(obs.KeyCached, cached))
			if res.Stopped {
				out.stopped++
				if n := len(res.Hops); n > 0 {
					frag.Emit(obs.KindStopsetHit, obs.OnAddr(dst), rel(),
						obs.IP(obs.KeyAt, res.Hops[n-1].Addr))
				}
				break // the path joins previously-observed interdomain hops
			}
			// Find the first externally-originated address.
			var firstExt netx.Addr
			for _, h := range res.Hops {
				if h.Type != probe.HopTimeExceeded {
					continue
				}
				if d.isExternal(h.Addr) {
					firstExt = h.Addr
					break
				}
			}
			if !firstExt.IsZero() {
				stopSet[firstExt] = true
				frag.Emit(obs.KindStopsetAdd, obs.OnAddr(firstExt), rel(),
					obs.IP(obs.KeyDst, dst))
				break
			}
			// No external interface seen; an echo reply from the probed
			// address alone is insufficient (§4: potential third-party) —
			// try the next address in the block.
		}
	}
	return finish()
}

// appendHops restates a trace's hops as path evidence: TTL, response class
// and responding address per hop.
func appendHops(dst []obs.Hop, hops []probe.Hop) []obs.Hop {
	for _, h := range hops {
		class := obs.HopTimeout
		switch h.Type {
		case probe.HopTimeExceeded:
			class = obs.HopTimeExceeded
		case probe.HopEchoReply:
			class = obs.HopEchoReply
		case probe.HopUnreachable:
			class = obs.HopUnreachable
		}
		dst = append(dst, obs.Hop{TTL: uint8(h.TTL), Class: class, Addr: h.Addr})
	}
	return dst
}

// resolveAliases runs the alias-resolution schedule over the observed
// addresses (§5.3): a Mercator sweep over every address, Ally on candidate
// pairs sharing a traceroute predecessor, and Prefixscan on every observed
// (previous hop, address) edge.
//
// With cross-round state (st non-nil), operations whose every address is
// clean — appeared only in fully-replayed targets — are replayed from the
// previous round's memo instead of probing: replay re-Records the same
// verdicts in the same order, so the resolver (and the alias graph built
// from it) ends in exactly the state a live run would reach. Any operation
// touching a dirty address runs live. The memo is rebuilt from this
// round's operations on every pass, so entries for vanished addresses and
// edges age out immediately.
func (d *Driver) resolveAliases(ds *Dataset, cfg Config, st *RoundState, clocked bool) {
	res := alias.NewResolver(d.Prober, cfg.AliasCfg)
	res.Trace = d.Trace
	if clocked {
		// Alias events carry timestamps relative to the alias stage's own
		// start. Only a prober with lanes has a clock it reads for free;
		// remote probers stamp zero (a clock round trip per event would
		// perturb the pinned frame stream).
		start := d.Prober.Now()
		res.Now = func() int64 { return int64(d.Prober.Now() - start) }
	}
	ds.Resolver = res
	// The dataset outlives the run — inference reads and records verdicts
	// through ds.Resolver — and must not keep the prober alive with it: for
	// a local run that is the engine and its whole forwarding plane.
	defer func() { res.Src, res.Now = nil, nil }()

	type edge struct{ prev, cur netx.Addr }
	addrSet := make(map[netx.Addr]bool)
	succOf := make(map[netx.Addr][]netx.Addr) // predecessor addr → successors
	var edges []edge
	seenEdge := make(map[edge]bool)
	for _, tr := range ds.Traces {
		var prev netx.Addr
		for _, h := range tr.Hops {
			if h.Type != probe.HopTimeExceeded {
				if h.Type == probe.HopTimeout {
					prev = 0
				}
				continue
			}
			addrSet[h.Addr] = true
			if !prev.IsZero() && prev != h.Addr {
				e := edge{prev, h.Addr}
				if !seenEdge[e] {
					seenEdge[e] = true
					edges = append(edges, e)
					succOf[prev] = append(succOf[prev], h.Addr)
				}
			}
			prev = h.Addr
		}
	}
	ds.Stats.AddrsObserved = len(addrSet)
	d.Obs.Add("driver.addrs_observed", int64(len(addrSet)))
	if cfg.DisableAlias {
		return // no graph: inference skips §5.4.7 too
	}
	if d.Prober.Err() != nil {
		// The session is gone; every probe below would fail. Report the
		// aborted stage instead of burning the retry machinery on it.
		d.Obs.Inc("driver.alias.aborted")
		ds.Graph = alias.NewGraph()
		return
	}

	// Cross-round memo plumbing. The new maps replace the old ones even on
	// an aborted stage (via defer), so stale entries never survive a round
	// they were not revalidated in.
	var newMerc map[netx.Addr]mercMemo
	var newPairs map[apair]alias.Verdict
	var newScans map[apair]scanMemo
	if st != nil {
		newMerc = make(map[netx.Addr]mercMemo)
		newPairs = make(map[apair]alias.Verdict)
		newScans = make(map[apair]scanMemo)
		defer func() {
			st.mercator, st.pairs, st.scans = newMerc, newPairs, newScans
			d.Obs.Add("rounds.alias.replayed", int64(ds.Stats.AliasOpsReplayed))
		}()
	}
	canReplay := func(as ...netx.Addr) bool {
		if st == nil || ds.Dirty == nil {
			return false
		}
		for _, a := range as {
			if ds.Dirty[a] {
				return false
			}
		}
		return true
	}

	// Mercator sweep: group addresses by common port-unreachable source.
	addrs := make([]netx.Addr, 0, len(addrSet))
	for a := range addrSet {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		if d.Prober.Err() != nil {
			d.Obs.Inc("driver.alias.aborted")
			ds.Graph = alias.FromResolver(res)
			return
		}
		var m mercMemo
		replayed := false
		if canReplay(a) {
			m, replayed = st.mercator[a]
		}
		if replayed {
			ds.Stats.AliasOpsReplayed++
		} else {
			r := d.Prober.Probe(a, probe.MethodUDP)
			if r.OK && r.From != a && !r.From.IsZero() {
				m = mercMemo{hit: true, from: r.From}
			}
		}
		if st != nil {
			newMerc[a] = m
		}
		if m.hit {
			res.Record(a, m.from, alias.AliasYes)
			d.Obs.Inc("driver.alias.mercator_hits")
			// A replayed operation's event is the live one plus cached=true.
			d.Trace.Emit(obs.KindMercator, obs.OnAddr(a), res.NowNS(),
				obs.IP(obs.KeyFrom, m.from), obs.Str(obs.KeyVerdict, "alias"), obs.Flag(obs.KeyCached, replayed))
		}
	}

	// Ally on candidate pairs: addresses observed after a common
	// predecessor may be interfaces of one router (load-balanced or
	// parallel links).
	pairs := 0
	for _, prev := range addrs {
		if d.Prober.Err() != nil {
			d.Obs.Inc("driver.alias.aborted")
			ds.Stats.AliasPairsRun = pairs
			ds.Graph = alias.FromResolver(res)
			return
		}
		succ := succOf[prev]
		if len(succ) < 2 {
			continue
		}
		limit := maxPairsPerAddr
		for i := 0; i < len(succ) && limit > 0; i++ {
			for j := i + 1; j < len(succ) && limit > 0; j++ {
				a, b := succ[i], succ[j]
				var v alias.Verdict
				replayed := false
				if canReplay(a, b) {
					v, replayed = st.pairs[mkpair(a, b)]
				}
				if replayed {
					ds.Stats.AliasOpsReplayed++
					// Re-Record the memoized verdict: Resolve records
					// only its own pair's final verdict, so this
					// reconstructs the exact resolver state.
					res.Record(a, b, v)
				} else {
					v = res.Resolve(a, b)
				}
				if st != nil {
					newPairs[mkpair(a, b)] = v
				}
				switch v {
				case alias.AliasYes:
					d.Obs.Inc("driver.alias.ally_yes")
				case alias.AliasNo:
					d.Obs.Inc("driver.alias.ally_no")
				default:
					d.Obs.Inc("driver.alias.ally_unknown")
				}
				pairs++
				limit--
			}
		}
	}
	// Prefixscan on every observed edge: confirm the inbound interface
	// and resolve the near-side alias of the point-to-point subnet.
	for _, e := range edges {
		if d.Prober.Err() != nil {
			d.Obs.Inc("driver.alias.aborted")
			break
		}
		ekey := apair{e.prev, e.cur}
		var sm scanMemo
		replayed := false
		if canReplay(e.prev, e.cur) {
			sm, replayed = st.scans[ekey]
		}
		if replayed {
			ds.Stats.AliasOpsReplayed++
			for _, pv := range sm.tried {
				res.Record(pv.A, pv.B, pv.V)
			}
		} else {
			sm.mate, sm.ok, sm.tried = res.PrefixscanTrace(e.prev, e.cur)
		}
		if st != nil {
			newScans[ekey] = sm
		}
		if sm.ok {
			d.Obs.Inc("driver.alias.prefixscan_hits")
			d.Trace.Emit(obs.KindPrefixscan, obs.OnPair(e.prev, e.cur), res.NowNS(),
				obs.IP(obs.KeyMate, sm.mate), obs.Flag(obs.KeyCached, replayed))
		}
		pairs++
	}
	ds.Stats.AliasPairsRun = pairs
	d.Obs.Add("driver.alias.pairs", int64(pairs))
	ds.Graph = alias.FromResolver(res)
}
