package fleet

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

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

func okShard(i int) Shard {
	return Shard{Run: func(*core.Arena) *Output { return &Output{Result: mkShardResult(i)} }}
}

// results projects outputs onto their per-shard results.
func results(outs []*Output) []*core.Result {
	res := make([]*core.Result, len(outs))
	for i, out := range outs {
		res[i] = out.Result
	}
	return res
}

func TestRunAllWorkersSameMerge(t *testing.T) {
	const n = 8
	var want *core.MergedMap
	for _, workers := range []int{1, 4, 8} {
		shards := make([]Shard, n)
		for i := range shards {
			shards[i] = okShard(i)
		}
		outs, err := Run(Config{Workers: workers}, shards)
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			if out.Result.VPName != fmt.Sprintf("vp%d", i) {
				t.Fatalf("workers=%d output %d is %s's", workers, i, out.Result.VPName)
			}
		}
		if got := core.Merge(results(outs)); want == nil {
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
			shards[i] = okShard(i)
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
	if !reflect.DeepEqual(core.Merge(results(base)), core.Merge(results(rev))) {
		t.Fatal("reversed enqueue order changed the merged map")
	}
	if !reflect.DeepEqual(results(base), results(rev)) {
		t.Fatal("reversed enqueue order changed per-shard results")
	}
}

func TestRunRejectsBadOrder(t *testing.T) {
	shards := []Shard{okShard(0), okShard(1)}
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
		return Shard{Run: func(*core.Arena) *Output {
			defer others.Done()
			return &Output{Result: mkShardResult(i)}
		}}
	}
	shards := []Shard{
		{Run: func(*core.Arena) *Output {
			others.Wait()
			return &Output{Result: mkShardResult(0)}
		}},
		quick(1), quick(2), quick(3),
	}
	outs, err := Run(Config{Workers: 2}, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out == nil {
			t.Fatalf("shard %d has no output", i)
		}
	}
}

// TestRunLogMergeShardOrder proves trace and span fragments land in the
// shared logs in shard order regardless of completion order.
func TestRunLogMergeShardOrder(t *testing.T) {
	trace := obs.NewTracer(0)
	spans := obs.NewSpanLog(0)
	root := spans.Begin(0, "run", "test")
	mkOut := func(i int) *Output {
		frag := obs.NewTracer(0)
		frag.Emit(obs.KindTarget, obs.OnAS(uint32(i)), 0, obs.Str(obs.KeyVia, "ok"))
		sfrag := obs.NewSpanLog(0)
		sp := sfrag.Begin(0, "vp", fmt.Sprintf("vp%d", i))
		sp.End()
		return &Output{Result: mkShardResult(i), Trace: frag, Spans: sfrag}
	}
	gate := make(chan struct{})
	shards := []Shard{
		{Run: func(*core.Arena) *Output {
			// Completes last despite being shard 0.
			<-gate
			return mkOut(0)
		}},
		{Run: func(*core.Arena) *Output {
			defer close(gate)
			return mkOut(1)
		}},
	}
	if _, err := Run(Config{Workers: 2, Trace: trace, Spans: spans, SpanParent: root.ID()}, shards); err != nil {
		t.Fatal(err)
	}
	var marks []string
	for _, ev := range trace.Events() {
		marks = append(marks, ev.Subject+"-"+ev.Attr("via"))
	}
	want := []string{"AS0-ok", "AS1-ok"}
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
	outs, err := Run(Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m := core.Merge(results(outs)); len(outs) != 0 || len(m.Links) != 0 {
		t.Fatalf("empty fleet: outputs %v, merged %+v", outs, m)
	}
}
