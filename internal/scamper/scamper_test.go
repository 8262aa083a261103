package scamper

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"bdrmap/internal/bgp"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

func setup(t *testing.T, seed int64) (*topo.Network, *probe.Engine, *bgp.View, map[topo.ASN]bool) {
	t.Helper()
	n := topo.Generate(topo.TinyProfile(), seed)
	tab := bgp.NewTable(n)
	view := bgp.Collect(tab, bgp.DefaultVantages(n))
	e := probe.New(n, tab)
	hosts := map[topo.ASN]bool{n.HostASN: true}
	for _, s := range n.Siblings(n.HostASN) {
		hosts[s] = true
	}
	return n, e, view, hosts
}

func TestTargetsExcludeHost(t *testing.T) {
	n, _, view, hosts := setup(t, 1)
	targets := Targets(view, hosts)
	if len(targets) == 0 {
		t.Fatal("no targets")
	}
	for _, tg := range targets {
		if hosts[tg.AS] {
			t.Fatalf("host AS %v in target list", tg.AS)
		}
		if len(tg.Blocks) == 0 {
			t.Fatalf("target %v has no blocks", tg.AS)
		}
	}
	_ = n
}

func TestTargetsCarveMoreSpecifics(t *testing.T) {
	_, _, view, hosts := setup(t, 2)
	targets := Targets(view, hosts)
	// No block may contain a more-specific routed prefix's space.
	routed := view.RoutedPrefixes()
	for _, tg := range targets {
		for _, b := range tg.Blocks {
			for _, p := range routed {
				if origins := view.OriginsExact(p); len(origins) == 1 && origins[0] == tg.AS {
					continue
				}
				if b.Contains(p.First()) && b.Contains(p.Last()) && p.NumAddrs() < b.NumAddrs() {
					t.Fatalf("block %v-%v of %v swallows routed prefix %v", b.First, b.Last, tg.AS, p)
				}
			}
		}
	}
}

// targetsQuadratic is Targets as it was: every routed prefix's
// more-specifics found by scanning all routed prefixes. Kept as the oracle
// for the sorted-run scan.
func targetsQuadratic(view *bgp.View, hostASNs map[topo.ASN]bool) []Target {
	routed := view.RoutedPrefixes()
	byAS := make(map[topo.ASN][]Block)
	for _, p := range routed {
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
		var ms []netx.Prefix
		for _, q := range routed {
			if q != p && p.ContainsPrefix(q) {
				ms = append(ms, q)
			}
		}
		for _, b := range netx.CarveBlocks(p, ms) {
			byAS[origins[0]] = append(byAS[origins[0]], Block{Block: b, Prefix: p})
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

// TestTargetsMatchQuadraticScan: on every built-in profile the target list
// is exactly what the all-pairs more-specific scan produced.
func TestTargetsMatchQuadraticScan(t *testing.T) {
	for _, prof := range topo.BuiltinProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			if testing.Short() && prof.Name != "tiny" && prof.Name != "r&e" {
				t.Skip("-short: tiny and r&e only")
			}
			n := topo.Generate(prof, 1)
			view := bgp.Collect(bgp.NewTable(n), bgp.DefaultVantages(n))
			hosts := map[topo.ASN]bool{n.HostASN: true}
			for _, s := range n.Siblings(n.HostASN) {
				hosts[s] = true
			}
			got, want := Targets(view, hosts), targetsQuadratic(view, hosts)
			if len(got) != len(want) {
				t.Fatalf("%d targets, the quadratic scan gives %d", len(got), len(want))
			}
			blocks := 0
			for i := range want {
				if got[i].AS != want[i].AS || !slices.Equal(got[i].Blocks, want[i].Blocks) {
					t.Fatalf("target %d: AS%d %v, the quadratic scan gives AS%d %v", i, got[i].AS, got[i].Blocks, want[i].AS, want[i].Blocks)
				}
				blocks += len(want[i].Blocks)
			}
			t.Logf("%d targets, %d blocks", len(want), blocks)
		})
	}
}

// runDriver runs one driver on a fresh world; the registry it returns is
// the engine's own, holding the run's packet ledger.
func runDriver(t *testing.T, seed int64, cfg Config) (*Dataset, *topo.Network, *obs.Registry) {
	t.Helper()
	n, e, view, hosts := setup(t, seed)
	reg := obs.New()
	e.SetObs(reg)
	d := &Driver{
		View:     view,
		Prober:   LocalProber{E: e, VP: n.VPs[0]},
		HostASNs: hosts,
		Cfg:      cfg,
	}
	return d.Run(), n, reg
}

func TestDriverRunProducesTraces(t *testing.T) {
	ds, _, _ := runDriver(t, 3, Config{})
	if ds.Stats.Traces == 0 || ds.Stats.HopsObserved == 0 {
		t.Fatalf("stats = %+v", ds.Stats)
	}
	if ds.Stats.AddrsObserved == 0 {
		t.Fatal("no addresses observed")
	}
	if ds.Graph == nil || ds.Resolver == nil {
		t.Fatal("alias results missing")
	}
}

func TestStopSetReducesWork(t *testing.T) {
	with, _, regWith := runDriver(t, 4, Config{Workers: 1})
	without, _, regWithout := runDriver(t, 4, Config{Workers: 1, DisableStopSet: true})
	if with.Stats.TracesStopped == 0 {
		t.Error("stop set never fired")
	}
	if without.Stats.TracesStopped != 0 {
		t.Error("disabled stop set still stopped traces")
	}
	sentWith := regWith.Snapshot().Counter("probe.packets_sent")
	sentWithout := regWithout.Snapshot().Counter("probe.packets_sent")
	if sentWith >= sentWithout {
		t.Errorf("stop set did not reduce packets: %d vs %d", sentWith, sentWithout)
	}
}

func TestDisableAliasSkipsResolution(t *testing.T) {
	ds, _, _ := runDriver(t, 5, Config{DisableAlias: true})
	if ds.Stats.AliasPairsRun != 0 {
		t.Fatalf("alias pairs run = %d with aliasing disabled", ds.Stats.AliasPairsRun)
	}
	if ds.Graph != nil {
		t.Fatal("alias graph built with aliasing disabled: inference would run §5.4.7 on it")
	}
}

func TestAliasGraphNoFalseMerges(t *testing.T) {
	ds, n, _ := runDriver(t, 6, Config{Workers: 1})
	for _, set := range ds.Graph.Sets() {
		owner := topo.RouterID(-1)
		for _, a := range set {
			ifc := n.IfaceByAddr(a)
			if ifc == nil {
				continue
			}
			if owner < 0 {
				owner = ifc.Router
			} else if ifc.Router != owner {
				t.Fatalf("alias set %v spans routers %d and %d", set, owner, ifc.Router)
			}
		}
	}
}

func TestDriverDeterministicSequential(t *testing.T) {
	a, _, _ := runDriver(t, 7, Config{Workers: 1})
	b, _, _ := runDriver(t, 7, Config{Workers: 1})
	if a.Stats != b.Stats {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	if len(a.Traces) != len(b.Traces) {
		t.Fatalf("trace counts differ")
	}
	for i := range a.Traces {
		if a.Traces[i].Dst != b.Traces[i].Dst || len(a.Traces[i].Hops) != len(b.Traces[i].Hops) {
			t.Fatalf("trace %d differs", i)
		}
	}
}

func TestRemoteAgentRoundTrip(t *testing.T) {
	n, e, view, hosts := setup(t, 8)

	rp, err := Listen("127.0.0.1:0", n.VPs[0].Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	agent := &Agent{E: e, VP: n.VPs[0]}
	done := make(chan error, 1)
	go func() { done <- agent.DialRetry(rp.Addr(), dialTCP) }()

	if err := rp.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rp.Name() != n.VPs[0].Name {
		t.Fatalf("agent name = %q", rp.Name())
	}

	// Remote and local traces must agree.
	local := e.NewLane(n.VPs[0], 0)
	dst := view.RoutedPrefixes()[len(view.RoutedPrefixes())-1].First() + 1
	lt := local.Trace(dst, nil, nil)
	rt := rp.Trace(dst, nil, nil)
	if len(lt.Hops) != len(rt.Hops) {
		t.Fatalf("hop counts differ: %d vs %d", len(lt.Hops), len(rt.Hops))
	}
	for i := range lt.Hops {
		if lt.Hops[i].Addr != rt.Hops[i].Addr || lt.Hops[i].Type != rt.Hops[i].Type {
			t.Fatalf("hop %d differs: %+v vs %+v", i, lt.Hops[i], rt.Hops[i])
		}
	}

	// Stop sets work over the wire.
	if len(lt.Hops) > 1 && lt.Hops[0].Type == probe.HopTimeExceeded {
		stopped := rp.Trace(dst, map[netx.Addr]bool{lt.Hops[0].Addr: true}, nil)
		if !stopped.Stopped || len(stopped.Hops) != 1 {
			t.Fatalf("remote stop set failed: %+v", stopped)
		}
	}

	// Probes work over the wire.
	target := lt.Hops[0].Addr
	if !target.IsZero() {
		lr := local.Probe(target, probe.MethodICMPEcho)
		rr := rp.Probe(target, probe.MethodICMPEcho)
		if lr.OK != rr.OK || lr.From != rr.From {
			t.Fatalf("probe mismatch: %+v vs %+v", lr, rr)
		}
	}

	out, in := rp.BytesTransferred()
	if out == 0 || in == 0 {
		t.Fatal("no protocol traffic recorded")
	}
	if agent.StateBytes() > 1<<20 {
		t.Fatalf("agent state too large: %d", agent.StateBytes())
	}

	rp.Close()
	if err := <-done; err != nil {
		t.Fatalf("agent exited with error: %v", err)
	}
	_ = hosts
}

func TestRemoteFullDriverRun(t *testing.T) {
	n, e, view, hosts := setup(t, 9)
	rp, err := Listen("127.0.0.1:0", n.VPs[0].Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	agent := &Agent{E: e, VP: n.VPs[0]}
	go agent.DialRetry(rp.Addr(), dialTCP)
	if err := rp.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	d := &Driver{View: view, Prober: rp, HostASNs: hosts, Cfg: Config{Workers: 2}}
	ds := d.Run()
	if ds.Stats.Traces == 0 || ds.Stats.AddrsObserved == 0 {
		t.Fatalf("remote run produced nothing: %+v", ds.Stats)
	}
	if err := rp.Err(); err != nil {
		t.Fatalf("transport error: %v", err)
	}
	if agent.Commands() == 0 {
		t.Fatal("agent executed no commands")
	}
}

// TestLocalAndRemoteRunsAgree: the §5.8 device is told the prior by type
// and address and returns only the hops it probed, and the controller
// splices the rest from its own prior. On tiny and r&e, a run of VP 0
// over a remote session records the traces a local run does
// (TraceFingerprint) at the same cost, hop for hop copied and sent.
func TestLocalAndRemoteRunsAgree(t *testing.T) {
	for _, prof := range []topo.Profile{topo.TinyProfile(), topo.REProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			n := topo.Generate(prof, 1)
			tab := bgp.NewTable(n)
			view := bgp.Collect(tab, bgp.DefaultVantages(n))
			hosts := map[topo.ASN]bool{n.HostASN: true}
			run := func(p Prober) (*Dataset, obs.Snapshot) {
				reg := obs.New()
				ds := (&Driver{View: view, Prober: p, HostASNs: hosts, Obs: reg}).Run()
				return ds, reg.Snapshot()
			}
			local, lsnap := run(LocalProber{E: probe.New(n, tab), VP: n.VPs[0]})

			rp, err := Listen("127.0.0.1:0", n.VPs[0].Name, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer rp.Close()
			agent := &Agent{E: probe.New(n, tab), VP: n.VPs[0]}
			go agent.DialRetry(rp.Addr(), dialTCP)
			if err := rp.Wait(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			remote, rsnap := run(rp)
			if err := rp.Err(); err != nil {
				t.Fatalf("transport error: %v", err)
			}

			if lf, rf := local.TraceFingerprint(), remote.TraceFingerprint(); lf != rf {
				t.Errorf("trace fingerprint %016x locally, %016x over the remote session", lf, rf)
			}
			for _, c := range []string{"driver.trace.packets.near", "driver.trace.packets.far", "driver.trace.hops_spliced"} {
				if l, r := lsnap.Counter(c), rsnap.Counter(c); l != r {
					t.Errorf("%s = %d locally, %d over the remote session", c, l, r)
				}
			}
			if lsnap.Counter("driver.trace.hops_spliced") == 0 {
				t.Error("no walk resumed from a prior: the wire's prior went untested")
			}
		})
	}
}

// TestPathStringFormat pins the "ttl:class[:addr]" rendering every trace
// fingerprint hashes: timeouts carry no address, TTLs are not padded.
func TestPathStringFormat(t *testing.T) {
	res := probe.TraceResult{Hops: []probe.Hop{
		{TTL: 1, Addr: 10<<24 | 1, Type: probe.HopTimeExceeded},
		{TTL: 2, Type: probe.HopTimeout},
		{TTL: 10, Addr: 192<<24 | 2<<8 | 255, Type: probe.HopUnreachable},
		{TTL: 11, Addr: 255<<24 | 255<<16 | 255<<8 | 255, Type: probe.HopEchoReply},
	}}
	const want = "1:te:10.0.0.1 2:to 10:un:192.0.2.255 11:er:255.255.255.255"
	if got := pathString(res); got != want {
		t.Errorf("pathString = %q, want %q", got, want)
	}
	if got := pathString(probe.TraceResult{}); got != "" {
		t.Errorf("pathString of no hops = %q, want empty", got)
	}
	if got := string(obs.AppendPath(nil, appendHops(nil, res.Hops))); got != want {
		t.Errorf("AppendPath = %q, want %q", got, want)
	}
}

// TestTraceFingerprintMatchesStringOracle holds the two places a trace's
// path is now rendered without a string per trace to the renderer they
// replaced: on every built-in profile, seeds 1–3 (seed 1 under -short),
// every VP's traces fingerprint to what sorting one string per line did,
// and every probe.trace event exports the path pathString built at the
// call site.
func TestTraceFingerprintMatchesStringOracle(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, prof := range topo.BuiltinProfiles() {
		for _, seed := range seeds {
			n := topo.Generate(prof, seed)
			tab := bgp.NewTable(n)
			view := bgp.Collect(tab, bgp.DefaultVantages(n))
			hosts := map[topo.ASN]bool{n.HostASN: true}
			plan := Targets(view, hosts)
			e := probe.New(n, tab)
			for vp := range n.VPs {
				name := fmt.Sprintf("%s seed %d VP %d", prof.Name, seed, vp)
				tr := obs.NewTracer()
				ds := (&Driver{
					View: view, Plan: plan, HostASNs: hosts, Trace: tr,
					Prober: LocalProber{E: e.Fork(), VP: n.VPs[vp]},
					Cfg:    Config{DisableAlias: true},
				}).Run()
				if len(ds.Traces) == 0 {
					t.Fatalf("%s: no traces", name)
				}
				if got, want := ds.TraceFingerprint(), ds.traceFingerprintStrings(); got != want {
					t.Errorf("%s: TraceFingerprint %016x, string oracle %016x", name, got, want)
				}
				i := 0
				for _, ev := range tr.Events() {
					if ev.Kind != "trace" {
						continue
					}
					// Events merge in target order, as the dataset's traces do.
					rec := ds.Traces[i]
					if ev.Subject != rec.Dst.String() || ev.Attr("target") != rec.TargetAS.String() || ev.Attr("path") != pathString(rec.TraceResult) {
						t.Fatalf("%s: trace %d toward %v exported as %+v, path oracle %q", name, i, rec.Dst, ev, pathString(rec.TraceResult))
					}
					i++
				}
				if i != len(ds.Traces) {
					t.Errorf("%s: %d trace events for %d traces", name, i, len(ds.Traces))
				}
			}
		}
	}
}

// TestBlockPrefixIsRouted: on every built-in profile each block of the
// plan carries the routed prefix the view answers for the addresses the
// driver probes in it, so the driver keys its priors without asking the
// view's trie.
func TestBlockPrefixIsRouted(t *testing.T) {
	for _, prof := range topo.BuiltinProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			n := topo.Generate(prof, 1)
			view := bgp.Collect(bgp.NewTable(n), bgp.DefaultVantages(n))
			hosts := map[topo.ASN]bool{n.HostASN: true}
			blocks := 0
			for _, tg := range Targets(view, hosts) {
				for _, b := range tg.Blocks {
					for _, dst := range []netx.Addr{b.First + 1, b.Last} {
						if !b.Contains(dst) {
							continue
						}
						if _, pfx, ok := view.Origins(dst); !ok || pfx != b.Prefix {
							t.Fatalf("AS%d block %v-%v carries %v; the view routes %v by %v (%t)", tg.AS, b.First, b.Last, b.Prefix, dst, pfx, ok)
						}
					}
					blocks++
				}
			}
			t.Logf("%d blocks", blocks)
		})
	}
}
