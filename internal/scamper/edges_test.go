package scamper

import (
	"slices"
	"testing"

	"bdrmap/internal/bgp"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// TestEdgeIndexMatchesPairSet: finding an edge seen before by scanning the
// address's predecessor list indexes exactly what the set of (predecessor,
// address) pairs did — the same addresses, and per address the same
// predecessors in the same first-seen order Ally's pair cap reads — over
// the traces of every VP of every built-in world.
func TestEdgeIndexMatchesPairSet(t *testing.T) {
	profiles := topo.BuiltinProfiles()
	if testing.Short() {
		profiles = []topo.Profile{topo.TinyProfile(), topo.REProfile()}
	}
	for _, prof := range profiles {
		n := topo.Generate(prof, 1)
		tab := bgp.NewTable(n)
		view := bgp.Collect(tab, bgp.DefaultVantages(n))
		host := map[topo.ASN]bool{n.HostASN: true}
		for v, vp := range n.VPs {
			traces := (&Driver{
				View: view, Prober: LocalProber{E: probe.New(n, tab), VP: vp}, HostASNs: host,
				Cfg: Config{DisableAlias: true},
			}).Run().Traces
			preds, sorted := indexEdgesMap(traces)
			ar := takeArena()
			ar.indexEdges(traces)
			if !slices.Equal(ar.sorted, sorted) {
				t.Fatalf("%s VP %d: %d addresses indexed, the pair set indexes %d", prof.Name, v, len(ar.sorted), len(sorted))
			}
			for a, want := range preds {
				if got := ar.preds[ar.id[a]]; !slices.Equal(got, want) {
					t.Fatalf("%s VP %d: %v's predecessors %v, the pair set gives %v", prof.Name, v, a, got, want)
				}
			}
			putArena(ar)
		}
	}
}
