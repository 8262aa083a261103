package core_test

import (
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// BenchmarkInferLargeAccess times §5.4 inference alone: the four VP
// datasets of a large-access cold map, measured once, inferred in turn
// with a provenance tracer attached, as a fleet worker runs them. The
// first inference of each warms the arena Infer's free list lends every
// later one. One op is the four inferences.
func BenchmarkInferLargeAccess(b *testing.B) {
	prof := topo.LargeAccessProfile()
	prof.NumVPs = 4
	s := eval.Build(prof, 1)
	ins := make([]core.Input, prof.NumVPs)
	for i := range ins {
		s.RunVP(i, scamper.Config{})
		ins[i] = core.Input{
			Data: s.Datasets[i], View: s.View, Rel: s.Rel, RIR: s.RIR, IXP: s.IXP,
			HostASN: s.Net.HostASN, Siblings: s.Sibs, Trace: obs.NewTracer(),
		}
		core.Infer(ins[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, in := range ins {
			core.Infer(in)
		}
	}
}
