// Package fleet is the multi-vantage-point coordinator: it schedules N
// per-VP measurement shards across a bounded worker pool fed from one
// queue and returns their results by shard index once every shard has
// completed — the deployment shape of §5.6 (one process per continent,
// many VPs per process) rather than one goroutine per VP. The caller
// builds one full generation from the returned results.
//
// Shards cannot fail: each runs on an in-process engine. A remote VP's
// §5.8 churn — session resume, the per-command retry budget, the partial
// map — is absorbed inside its one run (eval.Scenario.RunVPRemote), never
// by the coordinator.
//
// Determinism contract: the coordinator itself makes no
// schedule-dependent decisions about *content*. Results are stored by
// shard index, not completion order; trace and span fragments from the
// shards are merged into the shared logs in shard order after the pool
// drains. For a fixed shard list, the per-shard results — and so whatever
// a consumer merges or compiles from them — and the trace/span
// fingerprints are byte-identical for any worker count and any completion
// order.
package fleet

import (
	"fmt"
	"sync"

	"bdrmap/internal/core"
	"bdrmap/internal/obs"
)

// Output is one shard's artifacts. Trace and Spans are private fragments;
// the coordinator merges them into the shared logs in shard order once the
// pool drains, which is what keeps the merged timeline independent of
// completion order.
type Output struct {
	Result *core.Result
	Trace  *obs.Tracer
	Spans  *obs.SpanLog
	// Aux carries caller payload through the scheduler (eval keeps the
	// scamper dataset here).
	Aux any
}

// Shard is one schedulable vantage point.
type Shard struct {
	// Run measures and infers the shard. arena is the executing worker's
	// inference arena, reused (reset, not reallocated) across every shard
	// that worker runs.
	Run func(arena *core.Arena) *Output
}

// Config tunes one coordinator run.
type Config struct {
	// Workers bounds pool concurrency; <=0 means 1 (strict shard order).
	Workers int
	// Order optionally permutes enqueue order (adversarial completion
	// orders in tests). Must be a permutation of shard indices when set.
	Order []int
	// Obs receives fleet.* counters; Trace and Spans are the shared logs
	// the per-shard fragments merge into. All nil-safe.
	Obs        *obs.Registry
	Trace      *obs.Tracer
	Spans      *obs.SpanLog
	SpanParent obs.SpanID
}

// Run schedules shards across the pool and blocks until every shard has
// completed, returning their outputs by shard index. Its error is only for
// an invalid Order.
func Run(cfg Config, shards []Shard) ([]*Output, error) {
	n := len(shards)
	if n == 0 {
		return nil, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	order := cfg.Order
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	} else {
		if len(order) != n {
			return nil, fmt.Errorf("fleet: order has %d entries for %d shards", len(order), n)
		}
		seen := make([]bool, n)
		for _, i := range order {
			if i < 0 || i >= n || seen[i] {
				return nil, fmt.Errorf("fleet: order %v is not a permutation of %d shards", order, n)
			}
			seen[i] = true
		}
	}
	reg := cfg.Obs
	reg.Add("fleet.shards", int64(n))

	fsp := cfg.Spans.Begin(cfg.SpanParent, "fleet", fmt.Sprintf("%d shards", n))
	fsp.SetAttr("~workers", workers)

	// One FIFO, filled and closed before the workers start: whichever
	// worker is idle takes the next shard until it runs dry.
	queue := make(chan int, n)
	for _, i := range order {
		queue <- i
	}
	close(queue)

	// Each worker writes only the outs slots of the shards it dequeued, so
	// every index has exactly one writer.
	outs := make([]*Output, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := &core.Arena{}
			for i := range queue {
				reg.Inc("fleet.started")
				outs[i] = shards[i].Run(arena)
				reg.Inc("fleet.completed")
			}
		}()
	}
	wg.Wait()

	// Deterministic log merge: fragments fold into the shared logs in
	// shard order regardless of which worker ran what when.
	traces := make([]*obs.Tracer, n)
	for i, out := range outs {
		traces[i] = out.Trace
		cfg.Spans.Merge(out.Spans, fsp.ID())
	}
	cfg.Trace.Merge(traces...)
	fsp.SetAttr("shards", n)
	fsp.SetAttr("completed", n)
	fsp.End()
	return outs, nil
}
