// Package eval reproduces the paper's evaluation: Table 1 (heuristic usage
// and BGP coverage per network), the §5.6 ground-truth validation, Figure
// 14 (per-prefix border-router and next-hop-AS diversity across 19 VPs),
// Figure 15 (marginal utility of additional VPs), Figure 16 (geographic
// spread of observed interdomain links), the §5.3 stop-set efficiency
// numbers, and the ablations DESIGN.md calls out. Every experiment runs on
// the synthetic substrate with the full measurement + inference pipeline —
// only presentation code lives here.
package eval

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"bdrmap/internal/alias"
	"bdrmap/internal/asrel"
	"bdrmap/internal/bgp"
	"bdrmap/internal/core"
	"bdrmap/internal/faults"
	"bdrmap/internal/ixp"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/rir"
	"bdrmap/internal/scamper"
	"bdrmap/internal/sibling"
	"bdrmap/internal/topo"
)

// Scenario bundles one generated internetwork with all derived inputs and
// per-VP measurement results.
type Scenario struct {
	Profile topo.Profile

	Net  *topo.Network
	Tab  *bgp.Table
	View *bgp.View
	Rel  *asrel.Inference
	RIR  *rir.DB
	IXP  *ixp.PrefixList
	Sibs *sibling.Set
	// Engine is for ad-hoc probing of the world — tslpmon's and
	// examples/congestion's time-series probes, each on a lane of its own,
	// the benchmark's layer pass. A mapping run shares its forwarding plane
	// and nothing else: every VP attempt probes on a fork of its own (see
	// runShard), so no congestion episode or fault set here can reach a map.
	Engine   *probe.Engine
	HostASNs map[topo.ASN]bool
	// Obs collects metrics from every stage of the scenario's pipeline.
	Obs *obs.Registry
	// Trace records decision-provenance events from every stage. Always
	// non-nil after Build; the event stream (and its Fingerprint) is a pure
	// function of (profile, seed, cfg) regardless of worker count.
	Trace *obs.Tracer
	// Spans records the run's hierarchical span timeline (run → vp →
	// stage → target, plus remote agent-session spans grafted in after a
	// remote run). Always non-nil after Build; like the Trace stream its
	// deterministic portion is a pure function of (profile, seed, cfg)
	// regardless of worker count or healing fault schedule.
	Spans *obs.SpanLog
	// SpanRoot is the open "run" root span every vp span parents under.
	// It stays open for the scenario's lifetime; exporters include it via
	// SpanLog.Snapshot.
	SpanRoot *obs.OpenSpan

	Datasets []*scamper.Dataset // per VP, filled by RunVP/RunAll
	Results  []*core.Result
	// made is what each recorded result was made with: a run that asks
	// for something else measures the VP again.
	made []run

	// hostAdj is the public view's host-AS adjacency set, built once at
	// Build time: classify is called per neighbor per report row, and a
	// linear NeighborsOf scan per call is quadratic on large profiles.
	hostAdj map[topo.ASN]bool
	// plan is the probing plan every VP's driver reads, derived from the
	// view on first use and once per scenario.
	plan func() []scamper.Target
}

// Build generates the topology and derives every bdrmap input.
func Build(prof topo.Profile, seed int64) *Scenario {
	s := BuildFromNetwork(topo.Generate(prof, seed), seed)
	s.Profile = prof
	return s
}

// BuildFromNetwork derives every bdrmap input for an existing network
// (e.g. one reloaded with topo.Load). seed feeds the derived datasets'
// defect injection (WHOIS, PeeringDB).
func BuildFromNetwork(n *topo.Network, seed int64) *Scenario {
	tab := bgp.NewTable(n)
	view := bgp.Collect(tab, bgp.DefaultVantages(n))
	rel := asrel.Infer(view)
	rdb := rir.FromNetwork(n)
	pl := ixp.Merge(ixp.FromNetwork(n, seed))
	sibs := sibling.FromNetwork(n, seed)
	sibs.CurateHost(n)
	hosts := map[topo.ASN]bool{n.HostASN: true}
	for _, s := range sibs.SiblingsOf(n.HostASN) {
		hosts[s] = true
	}
	adj := make(map[topo.ASN]bool)
	for _, nb := range view.NeighborsOf(n.HostASN) {
		adj[nb] = true
	}
	reg, spans, root := OpenRun(n.HostASN, seed)
	eng := probe.New(n, tab)
	eng.SetObs(reg)
	return &Scenario{
		Net: n, Tab: tab, View: view, Rel: rel, RIR: rdb, IXP: pl,
		Sibs: sibs, Engine: eng, HostASNs: hosts, Obs: reg,
		Trace:    obs.NewTracer(),
		Spans:    spans,
		SpanRoot: root,
		Datasets: make([]*scamper.Dataset, len(n.VPs)),
		Results:  make([]*core.Result, len(n.VPs)),
		made:     make([]run, len(n.VPs)),
		hostAdj:  adj,
		plan:     sync.OnceValue(func() []scamper.Target { return scamper.Targets(view, hosts) }),
	}
}

// OpenRun makes what a run records into: a registry, a span log, and the
// log's open "run" root span for host AS host and seed. Every scenario
// opens one; a round loop's caller, which builds no world of its own,
// opens one to hand mapdb.RunRounds.
func OpenRun(host topo.ASN, seed int64) (*obs.Registry, *obs.SpanLog, *obs.OpenSpan) {
	spans := obs.NewSpanLog(0)
	return obs.New(), spans, spans.Begin(0, "run", fmt.Sprintf("host AS%d seed %d", host, seed))
}

// shard is what one run of one VP needs beyond the scenario's derived
// inputs: its configuration, its cross-round memory, where it records and
// — for a remote run — the link its agent dials. RunVP and RunVPRemote
// record straight into the scenario's shared logs under SpanRoot; fleet
// shards record into private fragments RunFleet merges back in VP order.
type shard struct {
	cfg scamper.Config // cfg.State carries the VP's cross-round memory, if any

	trace  *obs.Tracer
	spans  *obs.SpanLog
	parent obs.SpanID
	// mode labels the vp span ("", "remote", "fleet"); /v1/status picks
	// fleet shards out by it.
	mode string

	// link, when set, runs the VP as a §5.8 agent dialing it through a
	// faults injector instead of an in-process LocalProber.
	link   *scamper.RemoteProber
	faults faults.Spec

	// book, when set, is the fleet's alias book: what its lower-index VPs
	// settled. Nil for a solo run and for a fleet's VP 0.
	book *alias.Book
}

// run is what one VP's result was made with: its driver configuration,
// for a §5.8 run its fault spec, and whether its alias stage consulted a
// fleet's book.
type run struct {
	cfg    scamper.Config
	remote bool
	faults faults.Spec
	shared bool
}

func (sh shard) run() run { return run{sh.cfg, sh.link != nil, sh.faults, sh.book != nil} }

// vpRun is one VP's run between its stages: runShard's three steps, which
// a fleet takes in three phases.
type vpRun struct {
	sh     shard
	vsp    *obs.OpenSpan
	sess   *remoteSession
	probed *scamper.Probed
	ds     *scamper.Dataset
	res    *core.Result // set from the start when the VP was recorded
}

// runShard is the one way a VP is measured and inferred: build the driver,
// run its probe and alias stages, infer, hand back the dataset and result
// for the caller to record. Every run probes on a fresh fork of the
// scenario's engine — routing derived once per world, measurement state
// per run — so VP i's output is a pure function of (profile, seed, cfg,
// fault spec, book), whichever entry point asked, in whatever order, on
// whichever worker. A VP already recorded from the run sh asks for is
// returned as is, measuring nothing.
//
// A non-nil error with a nil res means the run never started (no remote
// session formed); with a non-nil res, that the session was lost mid-run
// and ds and res hold what was salvaged. dev is zero for an in-process
// run.
func (s *Scenario) runShard(i int, sh shard) (ds *scamper.Dataset, res *core.Result, dev RemoteStats, err error) {
	v, err := s.startShard(i, sh)
	if err != nil {
		return nil, nil, dev, err
	}
	v.resolve()
	return s.finishShard(v)
}

// startShard runs VP i's probe stage, or finds it recorded.
func (s *Scenario) startShard(i int, sh shard) (*vpRun, error) {
	if s.Results[i] != nil && s.made[i] == sh.run() {
		return &vpRun{sh: sh, ds: s.Datasets[i], res: s.Results[i]}, nil
	}
	vp := s.Net.VPs[i]
	eng := s.Engine.Fork()
	eng.SetObs(s.Obs)
	var prober scamper.Prober = scamper.LocalProber{E: eng, VP: vp}
	v := &vpRun{sh: sh}
	if sh.link != nil {
		sess, err := s.dialAgent(eng, vp, sh)
		if err != nil {
			return nil, err
		}
		prober, v.sess = sess.rp, sess
	}

	v.vsp = sh.spans.Begin(sh.parent, "vp", vp.Name)
	if sh.mode != "" {
		v.vsp.SetAttr("mode", sh.mode)
	}
	if v.sess != nil {
		// One run is one attempt; the span fingerprints pin the attribute.
		v.vsp.SetAttr("attempt", 0)
	}
	d := &scamper.Driver{
		View:       s.View,
		Prober:     prober,
		HostASNs:   s.HostASNs,
		Cfg:        sh.cfg,
		Obs:        s.Obs,
		Trace:      sh.trace,
		Spans:      sh.spans,
		SpanParent: v.vsp.ID(),
		Plan:       s.plan(),
	}
	v.probed = d.Probe()
	return v, nil
}

// resolve runs the VP's alias stage with its shard's book, then drops the
// driver and with it the VP's engine fork, which a fleet would otherwise
// hold until its last VP is inferred.
func (v *vpRun) resolve() {
	if v.res == nil {
		v.ds = v.probed.Resolve(v.sh.book)
		v.probed = nil
	}
}

// finishShard infers on the VP's dataset, ending a remote session first.
func (s *Scenario) finishShard(v *vpRun) (ds *scamper.Dataset, res *core.Result, dev RemoteStats, err error) {
	if v.res != nil {
		return v.ds, v.res, dev, nil
	}
	sh, ds := v.sh, v.ds
	runs := "eval.vp_runs"
	if v.sess != nil {
		dev, err = v.sess.finish(sh.spans, v.vsp.ID())
		runs = "eval.vp_runs_remote"
	}
	if err == nil && ds.Stats.TargetsLost > 0 {
		err = fmt.Errorf("%d targets lost", ds.Stats.TargetsLost)
	}
	res = core.Infer(core.Input{
		Data: ds, View: s.View, Rel: s.Rel, RIR: s.RIR, IXP: s.IXP,
		HostASN: s.Net.HostASN, Siblings: s.Sibs,
		Obs: s.Obs, Trace: sh.trace, Spans: sh.spans, SpanParent: v.vsp.ID(),
	})
	v.vsp.End()
	s.Obs.Inc(runs)
	return ds, res, dev, err
}

// RemoteStats is the §5.8 accounting of one remote run: what the thin
// device executed and held, and what crossed the wire.
type RemoteStats struct {
	Agent             string
	Commands          int64
	StateBytes        int // the device's peak buffer: all the state it keeps
	BytesOut, BytesIn int64
}

// remoteSession is one established agent session.
type remoteSession struct {
	rp        *scamper.RemoteProber
	agent     *scamper.Agent
	agentDone chan error
}

// dialAgent brings one remote run up: an in-process agent probing on eng
// through sh's fault injector dials the link over loopback TCP, and the
// run waits for the session to form.
func (s *Scenario) dialAgent(eng *probe.Engine, vp *topo.VP, sh shard) (*remoteSession, error) {
	inj := faults.New(sh.faults)
	eng.SetFaults(inj)
	// The agent keeps its own small span log (one span per protocol
	// session); finish grafts it under the vp span, so redials and resumes
	// are visible in the timeline.
	var agentSpans *obs.SpanLog
	if s.Spans.Enabled() {
		agentSpans = obs.NewSpanLog(256)
	}
	rs := &remoteSession{
		rp:        sh.link,
		agent:     &scamper.Agent{E: eng, VP: vp, Spans: agentSpans},
		agentDone: make(chan error, 1),
	}
	go func() { rs.agentDone <- rs.agent.DialRetry(sh.link.Addr(), inj.DialFunc) }()
	// A fault schedule harsh enough to kill every hello means no session
	// ever forms; the wait times out rather than waiting forever — after
	// 5s, generous against the agent's millisecond redial schedule.
	if err := sh.link.Wait(5 * time.Second); err != nil {
		rs.drain()
		return nil, err
	}
	return rs, nil
}

// drain waits for the agent goroutine to exit. A clean bye returns nil; a
// killed agent reports its redial exhaustion. Either way the dataset is
// what counts.
func (rs *remoteSession) drain() {
	select {
	case <-rs.agentDone:
	case <-time.After(10 * time.Second):
	}
}

// finish ends the session once the driver has run: it grafts the agent's
// session spans under the vp span, takes the run's accounting, says bye,
// waits the agent out, and reports the session's terminal error, if it
// was lost. The graft is best-effort: a session the fault schedule killed
// for good has nothing to pull, and that must not fail a
// degraded-but-useful run.
func (rs *remoteSession) finish(spans *obs.SpanLog, vsp obs.SpanID) (RemoteStats, error) {
	if spans.Enabled() {
		if recs, err := rs.rp.PullSpans(); err == nil {
			spans.MergeRecords(recs, vsp)
		}
	}
	bout, bin := rs.rp.BytesTransferred()
	dev := RemoteStats{
		Agent:    rs.rp.Name(),
		Commands: rs.agent.Commands(), StateBytes: rs.agent.StateBytes(),
		BytesOut: bout, BytesIn: bin,
	}
	err := rs.rp.Err()
	rs.rp.Close()
	rs.drain()
	return dev, err
}

// RunVP measures and infers from one vantage point, recording into the
// scenario's shared logs. It asks every alias question itself, so for VP
// i > 0 its alias stage takes longer than RunFleet's, which consults the
// book of the VPs below i; its traces are the same, and so are its links
// and owners unless that book held a true alias VP i's own probe lost.
func (s *Scenario) RunVP(i int, cfg scamper.Config) *core.Result {
	sh := shard{cfg: cfg, trace: s.Trace, spans: s.Spans, parent: s.SpanRoot.ID()}
	// A local run cannot fail: the engine is simulated and lossless.
	ds, res, _, _ := s.runShard(i, sh)
	s.Datasets[i], s.Results[i], s.made[i] = ds, res, sh.run()
	return res
}

// RunVPRemote measures VP i over the §5.8 remote-control protocol: a thin
// agent with its own engine dials back to an in-process controller
// listening on listen ("127.0.0.1:0" for an ephemeral loopback port),
// optionally through a deterministic fault injector (faultSpec syntax:
// internal/faults, e.g. "seed=11,drop=0.12,heal=40"). The session has one
// timeline, the device's, so a zero cfg.Workers probes on one worker and
// the command stream — and therefore the fault schedule and the inferred
// links — is deterministic. A lost session degrades gracefully: the partial dataset
// is still inferred and Datasets[i].Stats.TargetsLost reports what was
// abandoned; an error means no session ever formed. Cross-round state is
// local-only: a cfg.State is an error.
func (s *Scenario) RunVPRemote(i int, cfg scamper.Config, listen, faultSpec string) (*core.Result, RemoteStats, error) {
	if cfg.State != nil {
		return nil, RemoteStats{}, errors.New("eval: a remote run carries no cross-round state")
	}
	spec, err := faults.Parse(faultSpec)
	if err != nil {
		return nil, RemoteStats{}, err
	}
	link, err := scamper.Listen(listen, s.Net.VPs[i].Name, s.Obs)
	if err != nil {
		return nil, RemoteStats{}, err
	}
	defer link.Close()
	sh := shard{
		cfg: cfg, trace: s.Trace, spans: s.Spans, parent: s.SpanRoot.ID(), mode: "remote",
		link: link, faults: spec,
	}
	ds, res, dev, err := s.runShard(i, sh)
	if res == nil {
		return nil, dev, err
	}
	s.Datasets[i], s.Results[i], s.made[i] = ds, res, sh.run()
	return res, dev, nil
}

// RunAll measures from every VP with the paper's parameters. It is the
// one-worker degenerate case of RunFleet: every VP runs locally, in VP
// order, and the outputs land in Datasets/Results. RunFleet with more
// workers produces byte-identical merged output.
func (s *Scenario) RunAll() {
	if _, err := s.RunFleet(scamper.Config{}, FleetOptions{Workers: 1}); err != nil {
		// A fleet with no Order has nothing that can fail.
		panic(fmt.Sprintf("eval: RunAll: %v", err))
	}
}

// hostOrg reports whether asn belongs to the hosting organization.
func (s *Scenario) hostOrg(asn topo.ASN) bool { return s.HostASNs[asn] }

// neighborClass classifies a neighbor by the *inferred* relationship, the
// way the paper's Table 1 columns do.
type neighborClass int

const (
	classCust neighborClass = iota
	classPeer
	classProv
	classTraceOnly
	numClasses
)

func (c neighborClass) String() string {
	switch c {
	case classCust:
		return "cust"
	case classPeer:
		return "peer"
	case classProv:
		return "prov"
	default:
		return "trace"
	}
}

// classify buckets a neighbor AS: trace-only if absent from the public
// view's host adjacencies, else by inferred relationship.
func (s *Scenario) classify(asn topo.ASN) neighborClass {
	if !s.hostAdj[asn] {
		return classTraceOnly
	}
	switch s.Rel.Rel(s.Net.HostASN, asn) {
	case topo.RelCustomer:
		return classCust
	case topo.RelProvider:
		return classProv
	default:
		return classPeer
	}
}

// Validation is the §5.6 ground-truth comparison for one VP's result.
type Validation struct {
	Correct, Total int
	Wrong          []string
}

// Accuracy returns the fraction of inferred links that are correct.
func (v Validation) Accuracy() float64 {
	if v.Total == 0 {
		return 0
	}
	return float64(v.Correct) / float64(v.Total)
}

// Validate checks one result against ground truth: an inferred link is
// correct when its far address truly sits on a router of the inferred
// organization; a silent link is correct when the neighbor truly attaches
// at the named host router.
func (s *Scenario) Validate(res *core.Result) Validation {
	n := s.Net
	org := func(a topo.ASN) string {
		if as := n.ASes[a]; as != nil {
			return as.Org
		}
		return ""
	}
	attachedAt := make(map[topo.ASN]map[topo.RouterID]bool)
	note := func(far topo.ASN, near topo.RouterID) {
		if attachedAt[far] == nil {
			attachedAt[far] = make(map[topo.RouterID]bool)
		}
		attachedAt[far][near] = true
	}
	for _, lt := range n.InterdomainLinks(n.HostASN) {
		note(lt.FarAS, lt.NearRtr)
	}
	for _, sess := range n.Sessions() {
		if sess.A == n.HostASN {
			note(sess.B, sess.ARtr)
		} else if sess.B == n.HostASN {
			note(sess.A, sess.BRtr)
		}
	}

	var v Validation
	for _, l := range res.Links {
		v.Total++
		if l.Far != nil {
			r := n.RouterByAddr(l.FarAddr)
			switch {
			case r == nil:
				v.Wrong = append(v.Wrong, fmt.Sprintf("far addr %v unknown", l.FarAddr))
			case org(r.Owner) == org(l.FarAS) && org(r.Owner) != org(n.HostASN):
				v.Correct++
			default:
				v.Wrong = append(v.Wrong, fmt.Sprintf("far %v inferred %v truth %v heur=%s",
					l.FarAddr, l.FarAS, r.Owner, l.Heuristic))
			}
			continue
		}
		nearR := n.RouterByAddr(l.Near.Addrs[0])
		if nearR != nil && attachedAt[l.FarAS][nearR.ID] {
			v.Correct++
		} else {
			v.Wrong = append(v.Wrong, fmt.Sprintf("silent %v at %v misplaced", l.FarAS, l.Near.Addrs[0]))
		}
	}
	s.Obs.Add("eval.validate.total", int64(v.Total))
	s.Obs.Add("eval.validate.correct", int64(v.Correct))
	return v
}

// ValidateIXP checks inferred links whose far address lies on an IXP
// peering LAN against the IXP-published membership data (the PCH-style
// address→ASN records), the way §5.6 validated the R&E network's
// route-server interconnections. Links at addresses the dataset does not
// record are skipped (the paper could only check published members).
func (s *Scenario) ValidateIXP(res *core.Result) (correct, total int) {
	for _, l := range res.Links {
		if l.Far == nil {
			continue
		}
		if _, isIXP := s.IXP.IsIXP(l.FarAddr); !isIXP {
			continue
		}
		member, ok := s.IXP.MemberAt(l.FarAddr)
		if !ok {
			continue
		}
		total++
		if member == l.FarAS || s.Sibs.SameOrg(member, l.FarAS) {
			correct++
		}
	}
	return correct, total
}

// Coverage reports the fraction of BGP-visible host neighbors with at
// least one inferred border router (the "Coverage of BGP" row of Table 1).
func (s *Scenario) Coverage(res *core.Result) (found, total int) {
	for _, nb := range s.View.NeighborsOf(s.Net.HostASN) {
		if s.hostOrg(nb) {
			continue
		}
		total++
		if len(res.Neighbors[nb]) > 0 {
			found++
		}
	}
	return found, total
}
