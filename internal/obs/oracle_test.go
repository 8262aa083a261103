package obs_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bdrmap/internal/eval"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// TestTraceRenderMatchesEagerOracle holds the read side to the renderer it
// replaced: for every built-in profile and three seeds, the stream one VP's
// run stored renders — lazily, on export — to the JSON Lines, fingerprint
// and explain text the eager String/fmt/KV code produces from the same
// records. That includes the volatile IP-ID and rate samples, which
// fingerprints skip but exports carry.
func TestTraceRenderMatchesEagerOracle(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	kinds := make(map[string]int)
	for _, prof := range topo.BuiltinProfiles() {
		for _, seed := range seeds {
			s := eval.Build(prof, seed)
			s.RunVP(0, scamper.Config{})
			lazy, eager := s.Trace.Events(), s.Trace.EagerEvents()
			name := fmt.Sprintf("%s seed %d", prof.Name, seed)
			if len(lazy) == 0 || len(lazy) != len(eager) {
				t.Fatalf("%s: %d events lazily, %d eagerly", name, len(lazy), len(eager))
			}
			for i := range lazy {
				if !reflect.DeepEqual(lazy[i], eager[i]) {
					t.Fatalf("%s: event %d renders\n  lazily  %+v\n  eagerly %+v", name, i, lazy[i], eager[i])
				}
				kinds[lazy[i].Stage+"."+lazy[i].Kind]++
			}
			var got, want bytes.Buffer
			if err := s.Trace.WriteJSONL(&got); err != nil {
				t.Fatal(err)
			}
			if err := obs.WriteEventsJSONL(&want, eager); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: JSON Lines exports differ", name)
			}
			if s.Trace.Fingerprint() != obs.FingerprintEvents(eager) {
				t.Errorf("%s: fingerprints differ", name)
			}
			for _, l := range s.Results[0].Links[:min(3, len(s.Results[0].Links))] {
				for _, q := range []string{l.NearAddr.String(), l.FarAS.String()} {
					if obs.Explain(lazy, q) != obs.Explain(eager, q) {
						t.Errorf("%s: explain %s differs", name, q)
					}
				}
			}
		}
	}
	// The comparison is only as wide as what the runs emitted.
	for _, k := range []string{"probe.target", "probe.trace", "probe.stopset-hit", "probe.stopset-add",
		"alias.mercator", "alias.ally", "core.decision"} {
		if kinds[k] == 0 {
			t.Errorf("no %s event in any run", k)
		}
	}
	t.Logf("compared %v", kinds)
}
