package scamper

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bdrmap/internal/bgp"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// runOnce builds a fresh engine over a shared world and runs the full
// measurement schedule with the given worker count, returning the dataset
// and the metrics snapshot.
func runOnce(t *testing.T, n *topo.Network, workers int) (*Dataset, obs.Snapshot) {
	t.Helper()
	tab := bgp.NewTable(n)
	view := bgp.Collect(tab, bgp.DefaultVantages(n))
	reg := obs.New()
	e := probe.New(n, tab)
	e.SetObs(reg)
	d := &Driver{
		View:     view,
		Prober:   LocalProber{E: e, VP: n.VPs[0]},
		HostASNs: map[topo.ASN]bool{n.HostASN: true},
		Cfg:      Config{Workers: workers},
		Obs:      reg,
	}
	return d.Run(), reg.Snapshot()
}

// serializeTraces renders every trace byte-for-byte: destination, stop
// flags, and each hop's TTL, address, type, IP-ID, and RTT. Any
// scheduling leak — a shared clock read, a shared IP-ID counter, a
// rate-limit window shared across workers — shows up here.
func serializeTraces(ds *Dataset) string {
	var b strings.Builder
	for _, tr := range ds.Traces {
		fmt.Fprintf(&b, "as=%v dst=%v reached=%t stopped=%t |", tr.TargetAS, tr.Dst, tr.Reached, tr.Stopped)
		for _, h := range tr.Hops {
			fmt.Fprintf(&b, " %d:%v/%d/%d/%d", h.TTL, h.Addr, h.Type, h.IPID, h.RTT)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestParallelRunDeterministic runs the Workers:4 measurement schedule
// twice over the same world and requires byte-identical traces and
// identical deterministic metrics: the per-worker lanes must make the
// parallel run a pure function of the world, independent of goroutine
// interleaving.
func TestParallelRunDeterministic(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 1)
	ds1, snap1 := runOnce(t, n, 4)
	ds2, snap2 := runOnce(t, n, 4)

	s1, s2 := serializeTraces(ds1), serializeTraces(ds2)
	if s1 != s2 {
		i := 0
		for i < len(s1) && i < len(s2) && s1[i] == s2[i] {
			i++
		}
		lo := i - 80
		if lo < 0 {
			lo = 0
		}
		t.Fatalf("traces differ between identical Workers:4 runs near byte %d:\nrun1: …%s\nrun2: …%s",
			i, s1[lo:min(i+80, len(s1))], s2[lo:min(i+80, len(s2))])
	}
	if ds1.Stats != ds2.Stats {
		t.Fatalf("run stats differ:\nrun1: %+v\nrun2: %+v", ds1.Stats, ds2.Stats)
	}
	if snap1.Fingerprint() != snap2.Fingerprint() {
		t.Fatalf("metric fingerprints differ:\nrun1:\n%s\nrun2:\n%s", snap1.Format(), snap2.Format())
	}
	if ds1.Stats.Traces == 0 || ds1.Stats.SimDuration == 0 {
		t.Fatalf("degenerate run: %+v", ds1.Stats)
	}
}

// TestWorkerCountChangesOnlySchedule documents the lane model's contract:
// the set of destinations probed is worker-count-invariant (the schedule
// partitions targets, it does not reorder blocks within one), though
// per-hop timings may differ because lane clocks advance independently.
func TestWorkerCountChangesOnlySchedule(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 1)
	ds1, _ := runOnce(t, n, 1)
	ds4, _ := runOnce(t, n, 4)
	dsts := func(ds *Dataset) map[string]int {
		out := make(map[string]int)
		for _, tr := range ds.Traces {
			out[fmt.Sprintf("%v->%v", tr.TargetAS, tr.Dst)]++
		}
		return out
	}
	d1, d4 := dsts(ds1), dsts(ds4)
	if len(d1) != len(d4) {
		t.Fatalf("destination sets differ: %d (Workers:1) vs %d (Workers:4)", len(d1), len(d4))
	}
	for k, v := range d1 {
		if d4[k] != v {
			t.Fatalf("destination %s probed %d times with Workers:1, %d with Workers:4", k, v, d4[k])
		}
	}
}

// TestConcurrentDriversShareEngine: runs that share one engine and one
// registry are each a pure function of the world. On tiny and small-access,
// seeds 1–3, three Driver.Runs racing on one engine — the -race canary for
// lanes on one engine and every obs primitive — and a fourth run after them
// on the same engine agree on the traces (TraceFingerprint), the alias pairs
// run, the alias graph's router sets and the simulated duration; and the
// shared counters add up.
func TestConcurrentDriversShareEngine(t *testing.T) {
	for _, prof := range []topo.Profile{topo.TinyProfile(), topo.SmallAccessProfile()} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/%d", prof.Name, seed), func(t *testing.T) {
				n := topo.Generate(prof, seed)
				tab := bgp.NewTable(n)
				view := bgp.Collect(tab, bgp.DefaultVantages(n))
				reg := obs.New()
				e := probe.New(n, tab)
				e.SetObs(reg)
				run := func() *Dataset {
					return (&Driver{
						View:     view,
						Prober:   LocalProber{E: e, VP: n.VPs[0]},
						HostASNs: map[topo.ASN]bool{n.HostASN: true},
						Obs:      reg,
					}).Run()
				}

				results := make([]*Dataset, 3)
				var wg sync.WaitGroup
				for i := range results {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						results[i] = run()
					}(i)
				}
				wg.Wait()
				results = append(results, run())

				var total int64
				for _, ds := range results {
					total += int64(ds.Stats.Traces)
				}
				if got := reg.Snapshot().Counter("driver.traces"); got != total {
					t.Fatalf("driver.traces = %d, want %d", got, total)
				}
				first := results[0]
				if first.Stats.Traces == 0 || first.Stats.AliasPairsRun == 0 {
					t.Fatalf("run measured %d traces and %d alias pairs", first.Stats.Traces, first.Stats.AliasPairsRun)
				}
				for i, ds := range results[1:] {
					which := fmt.Sprintf("concurrent run %d", i+2)
					if i == 2 {
						which = "the run after them"
					}
					if got, want := ds.TraceFingerprint(), first.TraceFingerprint(); got != want {
						t.Errorf("%s: trace fingerprint %x, the first run's %x", which, got, want)
					}
					if got, want := ds.Stats.AliasPairsRun, first.Stats.AliasPairsRun; got != want {
						t.Errorf("%s: %d alias pairs run, the first run %d", which, got, want)
					}
					if got, want := ds.Graph.Sets(), first.Graph.Sets(); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: %d router sets, the first run %d", which, len(got), len(want))
					}
					if got, want := ds.Stats.SimDuration, first.Stats.SimDuration; got != want {
						t.Errorf("%s: SimDuration %v, the first run %v", which, got, want)
					}
				}
			})
		}
	}
}
