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
// datasets of a large-access cold map, measured once, inferred in turn on
// one warm arena with a provenance tracer attached, as a fleet worker runs
// them. One op is the four inferences.
func BenchmarkInferLargeAccess(b *testing.B) {
	prof := topo.LargeAccessProfile()
	prof.NumVPs = 4
	s := eval.Build(prof, 1)
	var ar core.Arena
	ins := make([]core.Input, prof.NumVPs)
	for i := range ins {
		s.RunVP(i, scamper.Config{}, core.Options{})
		ins[i] = core.Input{
			Data: s.Datasets[i], View: s.View, Rel: s.Rel, RIR: s.RIR, IXP: s.IXP,
			HostASN: s.Net.HostASN, Siblings: s.Sibs, Arena: &ar, Trace: obs.NewTracer(0),
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
