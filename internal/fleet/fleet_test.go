package fleet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"bdrmap/internal/core"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// mkShardResult fabricates a one-link result for shard i so merges are
// distinguishable per shard.
func mkShardResult(i int) *core.Result {
	l := &core.Link{
		NearAddr:  netx.Addr(10 + i),
		FarAddr:   netx.Addr(100 + i),
		FarAS:     topo.ASN(1000 + i),
		Heuristic: core.HeurIPAS,
	}
	l.Near = &core.RouterNode{Addrs: []netx.Addr{l.NearAddr}}
	l.Far = &core.RouterNode{Addrs: []netx.Addr{l.FarAddr}}
	return &core.Result{VPName: fmt.Sprintf("vp%d", i), Links: []*core.Link{l}}
}

func okShard(i int, block <-chan struct{}) Shard {
	return Shard{
		Name: fmt.Sprintf("vp%d", i),
		Run: func(ctx RunCtx) (*Output, error) {
			if block != nil {
				<-block
			}
			return &Output{Result: mkShardResult(i)}, nil
		},
	}
}

func TestRunAllWorkersSameMerge(t *testing.T) {
	const n = 8
	var want *core.MergedMap
	for _, workers := range []int{1, 4, 8} {
		shards := make([]Shard, n)
		for i := range shards {
			shards[i] = okShard(i, nil)
		}
		sum, err := Run(Config{Workers: workers}, shards)
		if err != nil {
			t.Fatal(err)
		}
		for i, sr := range sum.Shards {
			if sr.State != Done || sr.Attempts != 1 {
				t.Fatalf("workers=%d shard %d: %+v", workers, i, sr)
			}
		}
		if got := core.Merge(sum.Results); want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d merged map diverged", workers)
		}
	}
}

func TestRunAdversarialOrderSameMerge(t *testing.T) {
	const n = 6
	mk := func() []Shard {
		shards := make([]Shard, n)
		for i := range shards {
			shards[i] = okShard(i, nil)
		}
		return shards
	}
	base, err := Run(Config{Workers: 3}, mk())
	if err != nil {
		t.Fatal(err)
	}
	rev, err := Run(Config{Workers: 3, Order: []int{5, 4, 3, 2, 1, 0}}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(core.Merge(base.Results), core.Merge(rev.Results)) {
		t.Fatal("reversed enqueue order changed the merged map")
	}
	if !reflect.DeepEqual(base.Results, rev.Results) {
		t.Fatal("reversed enqueue order changed per-shard results")
	}
}

func TestRunRejectsBadOrder(t *testing.T) {
	shards := []Shard{okShard(0, nil), okShard(1, nil)}
	if _, err := Run(Config{Order: []int{0}}, shards); err == nil {
		t.Fatal("short order accepted")
	}
	if _, err := Run(Config{Order: []int{1, 1}}, shards); err == nil {
		t.Fatal("duplicate order accepted")
	}
}

// TestRunIdleWorkerDrainsQueue: with two workers and one of them blocked on a
// slow shard, the idle worker completes everything queued behind it — the
// slow shard returns only once every other shard has run.
func TestRunIdleWorkerDrainsQueue(t *testing.T) {
	var others sync.WaitGroup
	quick := func(i int) Shard {
		others.Add(1)
		return Shard{Name: fmt.Sprintf("vp%d", i), Run: func(ctx RunCtx) (*Output, error) {
			defer others.Done()
			return &Output{Result: mkShardResult(i)}, nil
		}}
	}
	shards := []Shard{
		{Name: "slow", Run: func(ctx RunCtx) (*Output, error) {
			others.Wait()
			return &Output{Result: mkShardResult(0)}, nil
		}},
		quick(1), quick(2), quick(3),
	}
	sum, err := Run(Config{Workers: 2}, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, sr := range sum.Shards {
		if sr.State != Done {
			t.Fatalf("shard %d state %v", i, sr.State)
		}
	}
}

// TestRunRetryBudget drives one shard through fail-fail-succeed and one
// past its budget with salvage.
func TestRunRetryBudget(t *testing.T) {
	reg := obs.New()
	attempts := make(map[string][]int)
	var mu sync.Mutex
	note := func(name string, a int) {
		mu.Lock()
		attempts[name] = append(attempts[name], a)
		mu.Unlock()
	}
	shards := []Shard{
		{Name: "flaky", Run: func(ctx RunCtx) (*Output, error) {
			note("flaky", ctx.Attempt)
			if ctx.Attempt < 2 {
				return nil, fmt.Errorf("boom %d", ctx.Attempt)
			}
			return &Output{Result: mkShardResult(0)}, nil
		}},
		{Name: "doomed", Run: func(ctx RunCtx) (*Output, error) {
			note("doomed", ctx.Attempt)
			// Produces partial output each time but always errors.
			return &Output{Result: mkShardResult(1)}, fmt.Errorf("always down")
		}},
		{Name: "dead", Run: func(ctx RunCtx) (*Output, error) {
			note("dead", ctx.Attempt)
			return nil, fmt.Errorf("nothing salvaged")
		}},
	}
	sum, err := Run(Config{Workers: 2, Retries: 2, Obs: reg}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Shards[0]; got.State != Done || got.Attempts != 3 || got.Err != nil {
		t.Fatalf("flaky: %+v", got)
	}
	if got := sum.Shards[1]; got.State != Degraded || got.Attempts != 3 || got.Err == nil {
		t.Fatalf("doomed: %+v", got)
	}
	if sum.Results[1] == nil {
		t.Fatal("doomed shard's salvage output not kept")
	}
	if got := sum.Shards[2]; got.State != Failed || got.Attempts != 3 {
		t.Fatalf("dead: %+v", got)
	}
	if sum.Results[2] != nil {
		t.Fatal("failed shard has a result")
	}
	if !reflect.DeepEqual(attempts["flaky"], []int{0, 1, 2}) {
		t.Fatalf("flaky attempts %v", attempts["flaky"])
	}
	if reg.Counter("fleet.retries").Load() != 6 {
		t.Fatalf("fleet.retries = %d, want 6", reg.Counter("fleet.retries").Load())
	}
	if reg.Counter("fleet.failed").Load() != 1 || reg.Counter("fleet.shard_degraded").Load() != 1 {
		t.Fatalf("terminal counters: failed=%d degraded=%d",
			reg.Counter("fleet.failed").Load(), reg.Counter("fleet.shard_degraded").Load())
	}
	// The merged map carries the Done and Degraded shards only.
	if got := core.Merge(sum.Results).VPs; len(got) != 2 {
		t.Fatalf("merged VPs = %v", got)
	}
}

// TestRunQuorumPublish holds one shard back behind a gate: the quorum
// publish must arrive without it, marked degraded, and the final publish
// must heal it.
func TestRunQuorumPublish(t *testing.T) {
	reg := obs.New()
	gate := make(chan struct{})
	var events []PublishEvent
	shards := []Shard{
		okShard(0, nil),
		okShard(1, nil),
		{Name: "late", Run: func(ctx RunCtx) (*Output, error) {
			<-gate
			return &Output{Result: mkShardResult(2)}, nil
		}},
	}
	cfg := Config{
		Workers: 3,
		Quorum:  2,
		Obs:     reg,
		OnPublish: func(ev PublishEvent) {
			events = append(events, ev)
			if !ev.Final {
				close(gate)
			}
		},
	}
	if _, err := Run(cfg, shards); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("publish events = %d, want partial+final", len(events))
	}
	partial, final := events[0], events[1]
	if partial.Final || !final.Final {
		t.Fatalf("event order wrong: %+v", events)
	}
	if !reflect.DeepEqual(partial.Degraded, []string{"late"}) {
		t.Fatalf("partial degraded = %v", partial.Degraded)
	}
	if len(final.Degraded) != 0 {
		t.Fatalf("final degraded = %v", final.Degraded)
	}
	pm, fm := core.Merge(partial.Results), core.Merge(final.Results)
	if len(pm.VPs) != 2 || len(fm.VPs) != 3 {
		t.Fatalf("merged VP counts: partial %v final %v", pm.VPs, fm.VPs)
	}
	healed := make(map[core.LinkKey]bool, len(fm.Links))
	for _, l := range fm.Links {
		healed[l.Key] = true
	}
	for _, l := range pm.Links {
		if !healed[l.Key] {
			t.Fatalf("healing generation dropped link %v", l.Key)
		}
	}
	if len(fm.Links) <= len(pm.Links) {
		t.Fatalf("healing generation added no links: %d partial, %d final", len(pm.Links), len(fm.Links))
	}
	if reg.Counter("fleet.publish.partial").Load() != 1 || reg.Counter("fleet.publish.final").Load() != 1 {
		t.Fatal("publish counters wrong")
	}
}

// TestRunStragglerTimeout arms the post-quorum timer and proves the
// partial generation waits for it (and is skipped entirely when the
// straggler beats the clock).
func TestRunStragglerTimeout(t *testing.T) {
	mk := func(gate chan struct{}) []Shard {
		return []Shard{
			okShard(0, nil),
			{Name: "late", Run: func(ctx RunCtx) (*Output, error) {
				<-gate
				return &Output{Result: mkShardResult(1)}, nil
			}},
		}
	}
	// Straggler slower than the timeout: partial publish fires.
	gate := make(chan struct{})
	var events []PublishEvent
	_, err := Run(Config{
		Workers: 2, Quorum: 1, StragglerTimeout: 10 * time.Millisecond,
		OnPublish: func(ev PublishEvent) {
			events = append(events, ev)
			if !ev.Final {
				close(gate)
			}
		},
	}, mk(gate))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Final {
		t.Fatalf("expected partial then final, got %+v", events)
	}
	// Straggler faster than the timeout: only the final generation.
	gate2 := make(chan struct{})
	close(gate2)
	events = nil
	_, err = Run(Config{
		Workers: 2, Quorum: 1, StragglerTimeout: time.Minute,
		OnPublish: func(ev PublishEvent) { events = append(events, ev) },
	}, mk(gate2))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].Final {
		t.Fatalf("expected final only, got %+v", events)
	}
}

// TestRunLogMergeShardOrder proves trace and span fragments land in the
// shared logs in shard order — including a failed attempt's fragment
// before its retry's — regardless of completion order.
func TestRunLogMergeShardOrder(t *testing.T) {
	trace := obs.NewTracer(0)
	spans := obs.NewSpanLog(0)
	root := spans.Begin(0, "run", "test")
	mkOut := func(i int, tag string) *Output {
		frag := obs.NewTracer(0)
		frag.Emit(obs.KindTarget, obs.OnAS(uint32(i)), 0, obs.Str(obs.KeyVia, tag))
		sfrag := obs.NewSpanLog(0)
		sp := sfrag.Begin(0, "vp", fmt.Sprintf("vp%d-%s", i, tag))
		sp.End()
		return &Output{Result: mkShardResult(i), Trace: frag, Spans: sfrag}
	}
	gate := make(chan struct{})
	shards := []Shard{
		{Name: "vp0", Run: func(ctx RunCtx) (*Output, error) {
			// Completes last despite being shard 0.
			<-gate
			if ctx.Attempt == 0 {
				return mkOut(0, "fail"), fmt.Errorf("first attempt dies")
			}
			return mkOut(0, "ok"), nil
		}},
		{Name: "vp1", Run: func(ctx RunCtx) (*Output, error) {
			defer close(gate)
			return mkOut(1, "ok"), nil
		}},
	}
	sum, err := Run(Config{Workers: 2, Retries: 1, Trace: trace, Spans: spans, SpanParent: root.ID()}, shards)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Shards[0].State != Done || sum.Shards[0].Attempts != 2 {
		t.Fatalf("shard 0: %+v", sum.Shards[0])
	}
	var marks []string
	for _, ev := range trace.Events() {
		marks = append(marks, ev.Subject+"-"+ev.Attr("via"))
	}
	want := []string{"AS0-fail", "AS0-ok", "AS1-ok"}
	if !reflect.DeepEqual(marks, want) {
		t.Fatalf("trace merge order = %v, want %v", marks, want)
	}
	root.End()
	var fleetID obs.SpanID
	var vpParents []obs.SpanID
	for _, r := range spans.Records() {
		switch r.Name {
		case "fleet":
			fleetID = r.ID
		case "vp":
			vpParents = append(vpParents, r.Parent)
		}
	}
	if fleetID == 0 {
		t.Fatal("no fleet coordinator span")
	}
	for _, p := range vpParents {
		if p != fleetID {
			t.Fatalf("vp span parented under %d, want fleet span %d", p, fleetID)
		}
	}
}

// TestRunNoShards covers the empty-fleet degenerate case.
func TestRunNoShards(t *testing.T) {
	sum, err := Run(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := core.Merge(sum.Results); len(sum.Results) != 0 || len(m.Links) != 0 {
		t.Fatalf("empty fleet: results %v, merged %+v", sum.Results, m)
	}
}
