package eval

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"time"

	"bdrmap/internal/core"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// holdVP0 is a FleetOptions.Gate that keeps VP 0 from measuring anything
// until every other VP has finished its probe stage, so VP 0 is probed
// last however the workers are scheduled. (No VP can complete before VP
// 0: every alias stage after VP 0's consults the book VP 0's starts.) A
// pool that cannot drain the queue behind a held worker never releases
// it; the hold gives up after a minute and fails t.
func holdVP0(t *testing.T, s *Scenario) func(int) {
	return func(vp int) {
		if vp != 0 {
			return
		}
		others := int64(len(s.Net.VPs) - 1)
		probed := func() int64 { return s.Obs.Snapshot().Stage("driver.probe").Count }
		for deadline := time.Now().Add(time.Minute); probed() < others; {
			if time.Now().After(deadline) {
				t.Errorf("VP 0 held for a minute: %d of the %d VPs queued behind it probed", probed(), others)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// fleetResults runs regional-vp seed 1 across the pool under fo and
// returns its per-VP results.
func fleetResults(t *testing.T, fo FleetOptions) []*core.Result {
	t.Helper()
	s := Build(topo.RegionalVPProfile(), 1)
	res, err := s.RunFleet(scamper.Config{}, fo)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r == nil {
			t.Fatalf("VP %d has no result", i)
		}
		if r.VPName != s.Net.VPs[i].Name {
			t.Fatalf("result %d is %s's, want %s's", i, r.VPName, s.Net.VPs[i].Name)
		}
	}
	return res
}

// TestRunFleetAllWorkersSameMerge: the per-VP results, and so the merged
// map, are the same for every worker count.
func TestRunFleetAllWorkersSameMerge(t *testing.T) {
	want := fleetResults(t, FleetOptions{Workers: 1})
	wantMerged := core.Merge(want)
	if len(wantMerged.Links) == 0 {
		t.Fatal("no links merged")
	}
	for _, workers := range []int{2, 3, 8} {
		got := fleetResults(t, FleetOptions{Workers: workers})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d per-VP results diverged", workers)
		}
		if !reflect.DeepEqual(core.Merge(got), wantMerged) {
			t.Errorf("workers=%d merged map diverged", workers)
		}
	}
}

// TestRunFleetAdversarialOrderSameMerge: a reversed enqueue order changes
// neither the per-VP results nor the merged map.
func TestRunFleetAdversarialOrderSameMerge(t *testing.T) {
	base := fleetResults(t, FleetOptions{Workers: 3})
	rev := fleetResults(t, FleetOptions{Workers: 3, Order: []int{2, 1, 0}})
	if !reflect.DeepEqual(rev, base) {
		t.Error("reversed enqueue order changed per-VP results")
	}
	if !reflect.DeepEqual(core.Merge(rev), core.Merge(base)) {
		t.Error("reversed enqueue order changed the merged map")
	}
}

// TestRunFleetRejectsBadOrder: an Order that is not a permutation of the
// VP indices is an error, and so are States that are not one per VP; the
// fleet then runs and records nothing.
func TestRunFleetRejectsBadOrder(t *testing.T) {
	s := Build(topo.RegionalVPProfile(), 1)
	s.Trace = obs.NewTracer()
	if len(s.Net.VPs) != 3 {
		t.Fatalf("regional-vp has %d VPs, want 3", len(s.Net.VPs))
	}
	for _, order := range [][]int{
		{0, 1},       // too short
		{0, 1, 2, 0}, // too long
		{0, 1, 1},    // repeated index
		{0, 1, 3},    // out of range
		{-1, 0, 1},   // out of range
	} {
		if _, err := s.RunFleet(scamper.Config{}, FleetOptions{Workers: 2, Order: order}); err == nil {
			t.Errorf("order %v accepted", order)
		}
	}
	for _, vps := range []int{0, 2, 4} {
		states := make([]*scamper.RoundState, vps)
		if _, err := s.RunFleet(scamper.Config{}, FleetOptions{Workers: 2, States: states}); err == nil {
			t.Errorf("%d states for 3 VPs accepted", vps)
		}
	}
	for _, c := range []string{"fleet.shards", "fleet.started", "eval.vp_runs"} {
		if n := s.Obs.Counter(c).Load(); n != 0 {
			t.Errorf("%s = %d after rejected orders, want 0", c, n)
		}
	}
	for i, res := range s.Results {
		if res != nil || s.Datasets[i] != nil {
			t.Errorf("VP %d recorded a result under a rejected order", i)
		}
	}
	if n := s.Trace.Len(); n != 0 {
		t.Errorf("rejected orders traced %d events", n)
	}
	for _, r := range s.Spans.Records() {
		if r.Name != "run" {
			t.Errorf("rejected orders opened a %q span", r.Name)
		}
	}
}

// TestRunFleetIdleWorkerDrainsQueue: with two workers and VP 0 held, the
// idle worker probes every VP queued behind it, and every VP then
// completes.
func TestRunFleetIdleWorkerDrainsQueue(t *testing.T) {
	s := Build(topo.RegionalVPProfile(), 1)
	res, err := s.RunFleet(scamper.Config{}, FleetOptions{Workers: 2, Gate: holdVP0(t, s)})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r == nil || s.Datasets[i] == nil {
			t.Fatalf("VP %d has no result", i)
		}
	}
	if n := s.Obs.Counter("fleet.completed").Load(); n != 3 {
		t.Fatalf("fleet.completed = %d, want 3", n)
	}
}

// TestRunFleetMergesLogsInVPOrder: when VP 0 is probed last, its trace
// events still come first and the vp spans still land in VP order, every
// one under the fleet span — the timeline a one-worker fleet in VP order
// writes VP by VP.
func TestRunFleetMergesLogsInVPOrder(t *testing.T) {
	ref := Build(topo.RegionalVPProfile(), 1)
	ref.Trace = obs.NewTracer()
	ref.RunAll()

	s := Build(topo.RegionalVPProfile(), 1)
	s.Trace = obs.NewTracer()
	// Run VP 2 first as well, so neither the queue nor completion is in
	// VP order.
	fo := FleetOptions{Workers: 3, Order: []int{2, 0, 1}, Gate: holdVP0(t, s)}
	if _, err := s.RunFleet(scamper.Config{}, fo); err != nil {
		t.Fatal(err)
	}
	if s.Trace.Len() == 0 {
		t.Fatal("fleet traced nothing")
	}
	if got, want := s.Trace.Fingerprint(), ref.Trace.Fingerprint(); got != want {
		t.Errorf("fleet trace fp %s, one-worker trace fp %s", got, want)
	}

	var fleet obs.SpanID
	var vps []obs.SpanRecord
	for _, r := range s.Spans.Records() {
		switch r.Name {
		case "fleet":
			fleet = r.ID
		case "vp":
			vps = append(vps, r)
		}
	}
	if fleet == 0 {
		t.Fatal("no fleet span")
	}
	var got, want []string
	for _, r := range vps {
		if r.Parent != fleet {
			t.Errorf("vp span %s parented under %d, want fleet span %d", r.Detail, r.Parent, fleet)
		}
		got = append(got, r.Detail)
	}
	for _, vp := range s.Net.VPs {
		want = append(want, vp.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("vp spans in order %v, want %v", got, want)
	}
}

// TestRunFleetNoVPs: a world with no vantage points is an empty fleet — an
// empty result, no error, nothing recorded.
func TestRunFleetNoVPs(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 1)
	n.VPs = nil
	s := BuildFromNetwork(n, 1)
	res, err := s.RunFleet(scamper.Config{}, FleetOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("empty fleet returned %d results", len(res))
	}
	if n := s.Obs.Counter("fleet.shards").Load(); n != 0 {
		t.Errorf("fleet.shards = %d for an empty fleet", n)
	}
}

// TestFleetAliasPhaseFreeOfScheduling: the alias stages run one VP at a
// time in VP index order on one book, so neither the worker count nor the
// enqueue order reaches what any VP's alias stage sees. On the
// benchmark's cold-map world (large-access, 4 VPs), every VP's run stats,
// trace fingerprint and alias evidence, the run's packet ledger and its
// trace and span fingerprints are the same for 1 and 4 workers under
// three enqueue orders.
func TestFleetAliasPhaseFreeOfScheduling(t *testing.T) {
	prof := topo.LargeAccessProfile()
	prof.NumVPs = 4
	type vpState struct {
		Stats    scamper.RunStats
		TraceFP  uint64
		Sets     [][]netx.Addr
		Pos, Neg [][2]netx.Addr
	}
	type runState struct {
		VPs           []vpState
		Ledger        map[string]int64
		TraceFP, Span string
	}
	sorted := func(ps [][2]netx.Addr) [][2]netx.Addr {
		slices.SortFunc(ps, func(a, b [2]netx.Addr) int {
			if c := cmp.Compare(a[0], b[0]); c != 0 {
				return c
			}
			return cmp.Compare(a[1], b[1])
		})
		return ps
	}
	var want *runState
	for _, workers := range []int{1, 4} {
		for _, order := range [][]int{nil, {3, 2, 1, 0}, {2, 0, 3, 1}} {
			s := Build(prof, 1)
			s.Trace = obs.NewTracer()
			if _, err := s.RunFleet(scamper.Config{}, FleetOptions{Workers: workers, Order: order}); err != nil {
				t.Fatal(err)
			}
			got := &runState{Ledger: make(map[string]int64), TraceFP: s.Trace.Fingerprint(), Span: s.Spans.Fingerprint()}
			snap := s.Obs.Snapshot()
			for _, c := range []string{"probe.packets_sent", "probe.probes", "driver.alias.probes.sweep",
				"driver.alias.probes.mercator", "driver.alias.probes.pick", "driver.alias.probes.ally",
				"driver.alias.book_hits", "driver.alias.answers_reused"} {
				got.Ledger[c] = snap.Counter(c)
			}
			for _, ds := range s.Datasets {
				got.VPs = append(got.VPs, vpState{
					Stats: ds.Stats, TraceFP: ds.TraceFingerprint(), Sets: ds.Graph.Sets(),
					Pos: sorted(ds.Resolver.Positives()), Neg: sorted(ds.Resolver.Negatives()),
				})
			}
			if want == nil {
				want = got
				if got.Ledger["driver.alias.book_hits"] == 0 {
					t.Fatal("no operation was settled by the book")
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				for i := range got.VPs {
					if !reflect.DeepEqual(got.VPs[i], want.VPs[i]) {
						t.Errorf("workers=%d order=%v: VP %d diverges from one worker in VP order", workers, order, i)
					}
				}
				if !reflect.DeepEqual(got.Ledger, want.Ledger) {
					t.Errorf("workers=%d order=%v: ledger %v, want %v", workers, order, got.Ledger, want.Ledger)
				}
				if got.TraceFP != want.TraceFP || got.Span != want.Span {
					t.Errorf("workers=%d order=%v: trace/span fingerprints diverge", workers, order)
				}
			}
		}
	}
}

// TestTracedFleetResolversDropTracer: a traced fleet's alias stages record
// their verdicts into each VP's trace fragment, which the fleet merges into
// the run's tracer, and the resolver each dataset keeps for inference lets
// go of that fragment once its stage is done.
func TestTracedFleetResolversDropTracer(t *testing.T) {
	s := Build(topo.RegionalVPProfile(), 1)
	s.Trace = obs.NewTracer()
	if _, err := s.RunFleet(scamper.Config{}, FleetOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	for i, ds := range s.Datasets {
		if ds.Resolver == nil {
			t.Fatalf("VP %d kept no resolver", i)
		}
		if ds.Resolver.Trace != nil {
			t.Errorf("VP %d's resolver still holds a tracer", i)
		}
	}
	verdicts := 0
	for _, ev := range s.Trace.Events() {
		if ev.Stage == obs.StageAlias {
			verdicts++
		}
	}
	if verdicts == 0 {
		t.Error("the run's tracer holds no alias verdict")
	}
}
