package scamper

import (
	"testing"

	"bdrmap/internal/bgp"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// BenchmarkAliasStage times §5.3 alias resolution alone: large-access VP
// 0's traces, measured once, resolved on a fresh engine every op — so each
// probe target's walk is derived once, as a cold map's alias stage derives
// it — and reports the packets and direct probes one op sends, the probes
// the resolver's answers stood in for, and the time per packet.
func BenchmarkAliasStage(b *testing.B) {
	n := topo.Generate(topo.LargeAccessProfile(), 1)
	tab := bgp.NewTable(n)
	view := bgp.Collect(tab, bgp.DefaultVantages(n))
	host := map[topo.ASN]bool{n.HostASN: true}
	vp := n.VPs[0]
	traced := (&Driver{
		View: view, Prober: LocalProber{E: probe.New(n, tab), VP: vp}, HostASNs: host,
		Cfg: Config{DisableAlias: true},
	}).Run()
	cfg := Config{}.withDefaults(true)
	var packets, probes int64
	var reused int
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		e := probe.New(n, tab)
		reg := obs.New()
		e.SetObs(reg)
		d := &Driver{View: view, Prober: LocalProber{E: e, VP: vp}, HostASNs: host}
		ds := &Dataset{Traces: traced.Traces}
		d.resolveAliases(ds, cfg, e.NewLane(vp, 0), true, nil)
		snap := reg.Snapshot()
		packets, probes = snap.Counter("probe.packets_sent"), snap.Counter("probe.probes")
		reused = ds.Resolver.Reused()
	}
	b.ReportMetric(float64(packets), "packets/op")
	b.ReportMetric(float64(probes), "probes/op")
	b.ReportMetric(float64(reused), "reused/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(packets), "ns/packet")
}
