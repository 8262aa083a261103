package bgp

import (
	"testing"

	"bdrmap/internal/topo"
)

// BenchmarkCollect times one cold public view — NewTable and Collect over
// the default vantages, every atom's RIB computed — on large-access (1 036
// ASes, 1 062 atoms) and r&e, and reports its bytes per op.
//
//	go test ./internal/bgp -run=NONE -bench=Collect -count=5
func BenchmarkCollect(b *testing.B) {
	for _, prof := range []topo.Profile{topo.LargeAccessProfile(), topo.REProfile()} {
		n := topo.Generate(prof, 1)
		vps := DefaultVantages(n)
		b.Run(prof.Name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				Collect(NewTable(n), vps)
			}
		})
	}
}
