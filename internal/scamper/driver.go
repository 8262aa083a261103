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

// maxPairsPerAddr bounds Ally work per successor address: among the
// addresses seen before one hop, at most this many candidate pairs are
// resolved.
const maxPairsPerAddr = 6

// Config tunes the driver. The zero value selects the paper's parameters.
type Config struct {
	// MaxAddrsPerBlock bounds the §5.3 retry rule (default 5).
	MaxAddrsPerBlock int
	// Workers is the number of target ASes probed concurrently (default 4
	// on a prober that opens private timelines, 1 on a §5.8 session: the
	// device has one timeline, and one worker keeps its command stream
	// deterministic).
	Workers int
	// DisableStopSet turns off both halves of doubletree (ablation): the
	// global stop set's early stopping and the local stop set's resumed
	// walks.
	DisableStopSet bool
	// DisableAlias skips alias resolution entirely (ablation, fig. 13).
	DisableAlias bool
	// AliasCfg tunes the alias resolver.
	AliasCfg alias.Config
	// State enables cross-round incremental probing: the driver replays
	// the previous round's trace to a destination wherever its path
	// signature is unchanged and the stop set would halt it where it
	// halted, carrying the doubletree economy (§5.2) across rounds. Replay
	// is validated against LocalProber.PathSignature, so State needs a
	// LocalProber: Run panics on any other prober.
	State *RoundState
}

// withDefaults fills the paper's parameters for a prober with private
// timelines or with one shared one.
func (c Config) withDefaults(private bool) Config {
	if c.MaxAddrsPerBlock <= 0 {
		c.MaxAddrsPerBlock = 5
	}
	if c.Workers <= 0 && private {
		c.Workers = 4
	}
	c.Workers = max(c.Workers, 1)
	return c
}

// Target is one AS's probing work: the address blocks it originates.
type Target struct {
	AS     topo.ASN
	Blocks []Block
}

// Block is one address block of a target and the routed prefix it was
// carved from: the longest announced prefix covering each of its
// addresses.
type Block struct {
	netx.Block
	Prefix netx.Prefix
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
	// prior traces of any target that was not served fully from cache.
	// The alias stage replays a memoized verdict only when none of its
	// addresses is dirty. It is nil when cross-round caching is off, which
	// reads as "everything is dirty".
	Dirty map[netx.Addr]bool
}

// RunStats summarizes the probing effort.
type RunStats struct {
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
	// round's trace to its destination without spending a probe packet.
	TracesLive   int
	TracesCached int
	// AliasOpsReplayed counts alias-stage operations (Mercator probes and
	// pair resolutions) replayed from the cross-round memo.
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
	byAS := make(map[topo.ASN][]Block)
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
		target := origins[0]
		for _, b := range netx.CarveBlocks(p, ms) {
			byAS[target] = append(byAS[target], Block{Block: b, Prefix: p})
		}
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
	// Plan is the probing plan, Targets(View, HostASNs): every VP of a
	// world probes the same one, so whoever runs several derives it once
	// and hands it to each driver, which only reads it. Nil derives it.
	Plan []Target
}

// Run executes probing and alias resolution, returning the dataset. Its
// alias stage consults no book: it asks every question itself.
func (d *Driver) Run() *Dataset {
	return d.Probe().Resolve(nil)
}

// Probed is one vantage point between its probe and alias stages: a fleet
// probes every VP before it resolves any VP's aliases.
type Probed struct {
	d        *Driver
	ds       *Dataset
	cfg      Config
	clocked  bool
	simEnd   time.Duration // the probe stage's end on the slowest timeline
	probeSim time.Duration
}

// Probe runs the probe stage. Resolve runs the alias stage on what it
// returns; with cross-round state, the state is held from one to the
// other.
func (d *Driver) Probe() *Probed {
	// Worker w probes on timelines[w]. A prober that returns the same
	// timeline twice has only one (a §5.8 session): its workers share it
	// and stamp events with SimNS 0 — reading the remote clock per event
	// would perturb the frame stream the fault goldens pin.
	timelines := []Timeline{d.Prober.Open(0), d.Prober.Open(0)}
	clocked := timelines[0] != timelines[1]
	cfg := d.Cfg.withDefaults(clocked)
	for len(timelines) < cfg.Workers {
		timelines = append(timelines, d.Prober.Open(0))
	}
	timelines = timelines[:cfg.Workers]
	simStart := timelines[0].Now()
	targets := d.Plan
	if targets == nil {
		targets = Targets(d.View, d.HostASNs)
	}
	ds := &Dataset{VPName: d.Prober.Name()}
	d.Obs.Add("driver.targets", int64(len(targets)))

	// With cross-round state the workers only read its traces; it is
	// written after the barrier.
	st := cfg.State
	var sigOf func(netx.Addr) uint64 // nil without State: every trace runs live
	if st != nil {
		lp, ok := d.Prober.(LocalProber)
		if !ok {
			panic(fmt.Sprintf("scamper: Config.State needs a LocalProber, got %T", d.Prober))
		}
		st.Acquire(d.Prober.Name())
		sigOf = lp.PathSignature
	}

	probeSpan := d.Obs.StartStage("driver.probe")
	probeSp := d.Spans.Begin(d.SpanParent, "stage", "probe")
	probeSp.SetAttr("targets", len(targets))
	// The stage's scratch memory, returned emptied once the slots have
	// been read: after the barrier, the fold and the target spans.
	ar := takeArena()
	defer putArena(ar)
	// One slot per target, written by exactly one worker. The SUM of the
	// slots' simulated durations is the probe stage span's duration on the
	// canonical serialized timeline (a sum is partition-invariant, unlike
	// the max-lane probeSim below, which depends on how targets land on
	// workers).
	outs := ar.slots(len(targets), cfg.Workers)
	// Per-worker provenance logs: a worker emits every event of its targets
	// into its own log and each slot notes where its target's events end.
	// After the barrier the logs are cut at those positions and folded into
	// d.Trace in target order — the merged stream is independent of which
	// worker finished first.
	wlogs := make([]*obs.Tracer, cfg.Workers)

	// Worker w handles targets w, w+W, w+2W, … on timelines[w], so each
	// slot, each private timeline and each worker's arena buffers are
	// touched by exactly one worker and the merge below needs no locks and
	// no ordering.
	var wg sync.WaitGroup
	for w := range timelines {
		ar.adopt(timelines[w])
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if d.Trace.Enabled() {
				wlogs[w] = obs.NewTracer()
			}
			// At least one record per block: a cold buffer is made that
			// large once instead of growing by doubling.
			blocks := 0
			for i := w; i < len(targets); i += cfg.Workers {
				blocks += len(targets[i].Blocks)
			}
			ar.recs[w] = slices.Grow(ar.recs[w], blocks)
			if sigOf != nil {
				ar.sigs[w] = slices.Grow(ar.sigs[w], blocks)
			}
			for i := w; i < len(targets); i += cfg.Workers {
				outs[i] = d.probeTarget(targets[i], cfg, timelines[w], clocked, wlogs[w], sigOf, ar, w)
			}
		}(w)
	}
	wg.Wait()
	for _, tl := range timelines {
		ar.release(tl)
	}
	// The probe stage's simulated duration is the slowest worker's
	// timeline; a shared timeline is read once.
	if !clocked {
		timelines = timelines[:1]
	}
	simEnd := simStart
	for _, tl := range timelines {
		simEnd = max(simEnd, tl.Now())
	}

	var targetSimNS int64
	var near, far, spliced int
	traces := 0
	for _, o := range outs {
		traces += len(o.recs)
	}
	ds.Traces = make([]TraceRecord, 0, traces)
	d.Trace.Reserve(len(outs))
	for i, o := range outs {
		ds.Traces = append(ds.Traces, o.recs...)
		ds.Stats.TracesStopped += o.stopped
		ds.Stats.TracesCached += o.cached
		near += o.near
		far += o.far
		spliced += o.spliced
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

	// Fold this round's traces back into the cross-round state
	// (single-threaded, after the barrier) and derive the dirty-address
	// set the alias stage keys its replay off.
	if st != nil {
		var clean []bool
		ds.Dirty, clean = st.fold(targets, outs)
		for _, c := range clean {
			if c {
				d.Obs.Inc("rounds.cache.hit")
			} else {
				d.Obs.Inc("rounds.cache.miss")
			}
		}
		ds.Stats.TracesLive = ds.Stats.Traces - ds.Stats.TracesCached
		d.Obs.Add("driver.traces_live", int64(ds.Stats.TracesLive))
		d.Obs.Add("driver.traces_cached", int64(ds.Stats.TracesCached))
	}

	d.Obs.Add("driver.traces", int64(ds.Stats.Traces))
	d.Obs.Add("driver.traces_stopped", int64(ds.Stats.TracesStopped))
	d.Obs.Add("driver.hops_observed", int64(ds.Stats.HopsObserved))
	d.Obs.Add("driver.trace.packets.near", int64(near))
	d.Obs.Add("driver.trace.packets.far", int64(far))
	d.Obs.Add("driver.trace.hops_spliced", int64(spliced))
	d.Obs.Max("driver.sim_clock_ns").Observe(int64(simEnd))
	probeSim := simEnd - simStart
	probeSpan.AddSim(probeSim)
	probeSpan.End()
	probeSp.SetAttr("traces", ds.Stats.Traces)
	probeSp.AddSim(time.Duration(targetSimNS))
	probeSp.End()
	return &Probed{d: d, ds: ds, cfg: cfg, clocked: clocked, simEnd: simEnd, probeSim: probeSim}
}

// Resolve runs the alias stage and returns the dataset. A non-nil book
// holds what the host network's other vantage points already settled; the
// stage asks the wire only what neither its round replay nor the book
// answers, and the book is left as it was (Book.Learn adds the stage's
// evidence).
func (p *Probed) Resolve(book *alias.Book) *Dataset {
	d, ds, cfg := p.d, p.ds, p.cfg
	if st := cfg.State; st != nil {
		defer st.Release()
	}
	aliasSpan := d.Obs.StartStage("driver.alias")
	aliasSp := d.Spans.Begin(d.SpanParent, "stage", "alias")
	// The alias stage starts where the probe stage ended, on a timeline of
	// its own.
	aliasTL := d.Prober.Open(p.simEnd)
	aliasStart := aliasTL.Now()
	d.resolveAliases(ds, cfg, aliasTL, p.clocked, book)
	aliasSim := aliasTL.Now() - aliasStart
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

	// SimDuration is the slowest worker plus the single-threaded alias
	// stage.
	ds.Stats.SimDuration = p.probeSim + aliasSim
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

// firstExternal returns the index of the first time-exceeded hop whose
// address is external, or -1.
func (d *Driver) firstExternal(hops []probe.Hop) int {
	for i, h := range hops {
		if h.Type == probe.HopTimeExceeded && d.isExternal(h.Addr) {
			return i
		}
	}
	return -1
}

// targetOut is what probing one target AS produced: the slot its worker
// fills and everything after the barrier reads.
type targetOut struct {
	recs    []TraceRecord
	sigs    []uint64 // recs' path signatures, with cross-round state
	stopped int      // traces the stop set halted
	cached  int      // traces replayed from cross-round state
	// far counts the live traces' hops from each one's first external hop
	// on, near the rest of the packets they sent; spliced counts the hops
	// they copied from a prior trace instead.
	near, far, spliced int

	lost   bool  // abandoned: the session died
	simNS  int64 // simulated duration, relative to the target's own start
	wallNS int64
	cut    obs.Pos // where the target's events end in its worker's log
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
//
// With sigOf (cross-round state) each destination's trace replays from
// cfg.State when RoundState.replay allows it.
//
// The target keeps its latest trace toward each routed prefix (doubletree's
// local stop set), and a live walk toward a prefix that has one resumes
// where that trace left the host network (resumeFrom). The scope is the
// routed prefix because the network spreads parallel links per prefix: a
// trace toward another prefix may have crossed a different link.
func (d *Driver) probeTarget(t Target, cfg Config, tl Timeline, clocked bool, frag *obs.Tracer, sigOf func(netx.Addr) uint64, ar *arena, w int) targetOut {
	// Event timestamps are relative to this target's own start: trace
	// pacing is a pure function of hop counts, so the relative times are
	// identical no matter which worker (and absolute lane time) ran the
	// target. A shared timeline stamps zero throughout.
	rel := func() int64 { return 0 }
	if clocked {
		start := tl.Now()
		rel = func() int64 { return int64(tl.Now() - start) }
	}
	wallStart := time.Now()
	frag.Emit(obs.KindTarget, obs.OnAS(t.AS), 0, obs.Int(obs.KeyBlocks, len(t.Blocks)))

	var out targetOut
	// The target's records and signatures are the runs its worker's
	// buffers gain from here on.
	recs, sigs := ar.recs[w], ar.sigs[w]
	lo, slo := len(recs), len(sigs)
	finish := func() targetOut {
		ar.recs[w], ar.sigs[w] = recs, sigs
		out.recs, out.sigs = recs[lo:len(recs):len(recs)], sigs[slo:len(sigs):len(sigs)]
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
	// last holds, per routed prefix, the prior a walk toward it resumes from.
	stopSet, last := ar.stopSets[w], ar.priors[w]
	clear(stopSet)
	clear(last)
	var hopBuf [32]obs.Hop // path evidence, restated per trace
	for _, b := range t.Blocks {
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
			var prior []probe.Hop
			if !cfg.DisableStopSet {
				ss, prior = stopSet, last[b.Prefix]
			}
			// A replayed trace is the one a live walk would return and
			// spends zero probe packets. Everything after it — stop-set
			// insertion, the §5.3 retry decision — runs the live code on
			// it, so the stop set evolves exactly as a from-scratch walk's.
			var res probe.TraceResult
			cached := false
			if sigOf != nil {
				sig := sigOf(dst)
				sigs = append(sigs, sig)
				if res, cached = cfg.State.replay(dst, sig, ss); cached {
					out.cached++
				}
			}
			if !cached {
				res = tl.Trace(dst, ss, prior)
				if len(res.Hops) == 0 && d.Prober.Err() != nil {
					// The session died mid-command; this empty trace is a
					// transport artifact, not a measurement.
					return abandon()
				}
			}
			// The first external hop splits a live trace's packets, is
			// where the next walk toward the prefix resumes and, on a
			// trace the stop set did not halt, joins the stop set.
			ext := d.firstExternal(res.Hops)
			last[b.Prefix] = resumeFrom(res.Hops, ext)
			if !cached {
				far := 0
				if ext >= 0 {
					far = len(res.Hops) - ext
				}
				out.near += int(res.Sent) - far
				out.far += far
				out.spliced += int(res.Spliced)
			}
			recs = append(recs, TraceRecord{TraceResult: res, TargetAS: t.AS})
			ev := [...]obs.Field{
				obs.AS(obs.KeyTarget, t.AS),
				obs.Int(obs.KeyHops, len(res.Hops)),
				obs.Path(obs.KeyPath, appendHops(hopBuf[:0], res.Hops)),
				obs.Flag(obs.KeyReached, res.Reached),
				obs.Flag(obs.KeyStopped, res.Stopped),
				obs.Flag(obs.KeyCached, cached),
				obs.Int(obs.KeySpliced, int(res.Spliced)),
			}
			n := len(ev)
			if res.Spliced == 0 {
				n-- // spliced is said only when the walk copied hops
			}
			frag.Emit(obs.KindTrace, obs.OnAddr(dst), rel(), ev[:n]...)
			if res.Stopped {
				out.stopped++
				if n := len(res.Hops); n > 0 {
					frag.Emit(obs.KindStopsetHit, obs.OnAddr(dst), rel(),
						obs.IP(obs.KeyAt, res.Hops[n-1].Addr))
				}
				break // the path joins previously-observed interdomain hops
			}
			if ext >= 0 {
				firstExt := res.Hops[ext].Addr
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

// resumeFrom cuts a trace toward a routed prefix, whose first external
// hop is at index ext (-1 for none), to the prior a later walk toward the
// prefix resumes from: its hops before the first external hop, or, when
// it saw none, through its last time-exceeded hop. It is nil when the
// trace has neither.
func resumeFrom(hops []probe.Hop, ext int) []probe.Hop {
	if ext >= 0 {
		return hops[:ext:ext]
	}
	for i := len(hops) - 1; i >= 0; i-- {
		if hops[i].Type == probe.HopTimeExceeded {
			return hops[: i+1 : i+1]
		}
	}
	return nil
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
		dst = append(dst, obs.Hop{TTL: h.TTL, Class: class, Addr: h.Addr})
	}
	return dst
}

// resolveAliases runs the alias-resolution schedule over the observed
// addresses (§5.3): a Mercator sweep over every address, then Mercator
// and Ally on candidate pairs sharing a traceroute successor.
//
// With cross-round state (st non-nil), operations whose every address is
// clean — appeared only in fully-replayed targets — are replayed from the
// previous round's memo instead of probing: replay re-Records the same
// verdicts in the same order, so the resolver (and the alias graph built
// from it) ends in exactly the state a live run would reach. Any operation
// touching a dirty address runs live. The memo is rebuilt from this
// round's operations on every pass, so entries for vanished addresses and
// pairs age out immediately.
//
// The resolver's blind set (addresses an Ally round showed to have no
// IP-ID counter) and its answers (what each address replied to: the
// sweep's UDP sources and the methods Ally's choice found) live for this
// one stage and are not replayed: a replayed operation sends nothing, so
// it marks and answers nothing, and a live operation in an incremental
// round may send a probe a from-scratch run would have skipped. A blind
// test ends Unknown, which is never recorded, so replay still restores
// every recorded verdict.
//
// An operation that does not replay asks the resolver, which consults the
// book (the fleet's evidence from lower-index VPs) before the wire.
func (d *Driver) resolveAliases(ds *Dataset, cfg Config, tl Timeline, clocked bool, book *alias.Book) {
	st := cfg.State
	res := alias.NewResolver(tl, cfg.AliasCfg)
	res.Trace = d.Trace
	res.Book = book
	if clocked {
		// Alias events carry timestamps relative to the alias stage's own
		// start. Only a private timeline has a clock it reads for free; a
		// shared one stamps zero (a clock round trip per event would
		// perturb the pinned frame stream).
		start := tl.Now()
		res.Now = func() int64 { return int64(tl.Now() - start) }
	}
	ds.Resolver = res
	// The dataset outlives the run — inference reads verdicts through
	// ds.Resolver — and must not keep the timeline alive with it (for a
	// local run that is the engine and its whole forwarding plane), nor
	// the fleet's book.
	defer func() { res.Src, res.Now, res.Book = nil, nil, nil }()

	// The edge index and the lane's router table live in an arena the
	// stage returns emptied.
	ar := takeArena()
	defer putArena(ar)
	ar.adopt(tl)
	defer ar.release(tl)
	ar.indexEdges(ds.Traces)
	addrs := ar.sorted
	ds.Stats.AddrsObserved = len(addrs)
	d.Obs.Add("driver.addrs_observed", int64(len(addrs)))
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

	defer func() {
		d.Obs.Add("driver.alias.answers_reused", int64(res.Reused()))
		d.Obs.Add("driver.alias.book_hits", int64(res.BookHits()))
		sent := res.Sent()
		d.Obs.Add("driver.alias.probes.sweep", int64(sent.Sweep))
		d.Obs.Add("driver.alias.probes.mercator", int64(sent.Mercator))
		d.Obs.Add("driver.alias.probes.pick", int64(sent.Pick))
		d.Obs.Add("driver.alias.probes.ally", int64(sent.Ally))
	}()

	// Cross-round memo plumbing. This stage's verdicts replace the last
	// stage's even when the stage aborts (via defer), so stale entries
	// never survive a round they were not revalidated in.
	var verdicts map[aliasOp]alias.PairVerdict
	if st != nil {
		verdicts = make(map[aliasOp]alias.PairVerdict, len(st.aliases))
		defer func() {
			st.aliases = verdicts
			d.Obs.Add("rounds.alias.replayed", int64(ds.Stats.AliasOpsReplayed))
		}()
	}
	// replay re-Records the verdict op recorded last round and returns it,
	// when none of op's addresses is dirty (zero never is; Dirty is nil
	// without cross-round state).
	replay := func(op aliasOp) (alias.PairVerdict, bool) {
		if ds.Dirty == nil || ds.Dirty[op.a] || ds.Dirty[op.b] {
			return alias.PairVerdict{}, false
		}
		pv, ok := st.aliases[op]
		if ok {
			res.Record(pv.A, pv.B, pv.V)
			ds.Stats.AliasOpsReplayed++
		}
		return pv, ok
	}
	// keep notes what op recorded this round.
	keep := func(op aliasOp, pv alias.PairVerdict) {
		if verdicts != nil {
			verdicts[op] = pv
		}
	}

	// Mercator sweep: group addresses by common port-unreachable source.
	// It asks through the resolver, so Resolve's Mercator and Ally's method
	// choice reuse every UDP answer it got.
	for _, a := range addrs {
		if d.Prober.Err() != nil {
			d.Obs.Inc("driver.alias.aborted")
			ds.Graph = alias.FromResolver(res)
			return
		}
		// A probe with no hit keeps an Unknown verdict, which Record ignores.
		op := aliasOp{kind: opMercator, a: a}
		pv, replayed := replay(op)
		if !replayed {
			pv = alias.PairVerdict{A: a}
			if from, ok := res.UDPSource(a); ok && from != a && !from.IsZero() {
				pv = alias.PairVerdict{A: a, B: from, V: alias.AliasYes}
				res.Record(a, from, alias.AliasYes)
			}
		}
		keep(op, pv)
		if pv.V == alias.AliasYes {
			d.Obs.Inc("driver.alias.mercator_hits")
			// A replayed operation's event is the live one plus cached=true.
			d.Trace.Emit(obs.KindMercator, obs.OnAddr(a), res.NowNS(),
				obs.IP(obs.KeyFrom, pv.B), obs.Str(obs.KeyVerdict, "alias"), obs.Flag(obs.KeyCached, replayed))
		}
	}

	// Ally on candidate pairs: addresses observed before a common
	// successor may be interfaces of one router. The successor answers
	// from its in-interface on one link, so what precedes it is the router
	// at that link's far end, seen through in-interfaces on different
	// links. Addresses observed after a common predecessor are its
	// out-neighbours: distinct routers on load-balanced or parallel paths,
	// nearly never aliases.
	pairs := 0
	for _, next := range addrs {
		if d.Prober.Err() != nil {
			d.Obs.Inc("driver.alias.aborted")
			ds.Stats.AliasPairsRun = pairs
			ds.Graph = alias.FromResolver(res)
			return
		}
		pred := ar.preds[ar.id[next]]
		if len(pred) < 2 {
			continue
		}
		limit := maxPairsPerAddr
		for i := 0; i < len(pred) && limit > 0; i++ {
			for j := i + 1; j < len(pred) && limit > 0; j++ {
				a, b := pred[i], pred[j]
				// Resolve records only its own pair's final verdict, so
				// re-Recording it reconstructs the exact resolver state.
				op := aliasOp{kind: opResolve, a: min(a, b), b: max(a, b)}
				pv, replayed := replay(op)
				if !replayed {
					pv = alias.PairVerdict{A: a, B: b, V: res.Resolve(a, b)}
				}
				keep(op, pv)
				// The pair's final verdict, whichever test supplied it: a
				// Mercator positive from the sweep decides a pair too.
				switch pv.V {
				case alias.AliasYes:
					d.Obs.Inc("driver.alias.pairs.yes")
				case alias.AliasNo:
					d.Obs.Inc("driver.alias.pairs.no")
				default:
					d.Obs.Inc("driver.alias.pairs.unknown")
					if !replayed && (res.Blind(a) || res.Blind(b)) {
						d.Obs.Inc("driver.alias.ally_blind")
					}
				}
				pairs++
				limit--
			}
		}
	}
	ds.Stats.AliasPairsRun = pairs
	d.Obs.Add("driver.alias.pairs", int64(pairs))
	ds.Graph = alias.FromResolver(res)
}
