// Package fleet is the multi-vantage-point coordinator: it schedules N
// per-VP measurement shards across a bounded worker pool fed from one
// queue, collects completed results by shard index, and publishes
// generations as configurable shard quorums complete — the deployment
// shape of §5.6 (one process per continent, many VPs per process) rather
// than one goroutine per VP.
//
// Failure policy is first-class: each shard has a retry budget (a failed
// attempt — typically a remote agent whose session was permanently lost —
// is requeued and may be picked up by any worker, carrying its RoundState
// with it), and a straggler timeout after quorum publishes a partial
// generation that marks the late shards degraded instead of blocking the
// fleet on its slowest member.
//
// Determinism contract: the coordinator itself makes no
// schedule-dependent decisions about *content*. Results are stored by
// shard index, not completion order; trace and span fragments from the
// shards are merged into the shared logs in (shard, attempt) order after
// the pool drains. For a fixed shard list and fault schedule, the
// per-shard results — and so whatever a consumer merges or compiles from
// them — and the trace/span fingerprints are byte-identical for any worker
// count and any completion order. Only the *partial* (quorum-time)
// publishes depend on arrival order — they are explicitly a
// freshness/latency trade, and the final generation heals them.
package fleet

import (
	"fmt"
	"sync"
	"time"

	"bdrmap/internal/core"
	"bdrmap/internal/obs"
)

// ShardState is the disposition of one shard. The zero value is Pending —
// deliberately not a terminal state, so a forgotten assignment can never
// read as success.
type ShardState uint8

const (
	// Pending means the shard has not yet reached a terminal state.
	Pending ShardState = iota
	// Done means the shard's final attempt succeeded.
	Done
	// Degraded means the retry budget ran out but a partial output was
	// salvaged from the last attempt (the §5.8 partial-map semantics).
	Degraded
	// Failed means no attempt produced any output.
	Failed
)

func (s ShardState) String() string {
	switch s {
	case Pending:
		return "pending"
	case Done:
		return "done"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("ShardState(%d)", uint8(s))
}

// RunCtx is what the pool hands a shard's Run function.
type RunCtx struct {
	// Attempt counts from 0; retries increment it.
	Attempt int
	// Arena is the executing worker's inference arena, reused (reset, not
	// reallocated) across every shard that worker runs.
	Arena *core.Arena
}

// Output is one attempt's artifacts. Trace and Spans are private
// fragments; the coordinator merges them into the shared logs in shard
// order once the pool drains, which is what keeps the merged timeline
// independent of completion order.
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
	Name string
	// Run executes one attempt. A non-nil error marks the attempt failed
	// and eligible for retry; a non-nil Output alongside the error is
	// kept as salvage in case the budget runs out.
	Run func(ctx RunCtx) (*Output, error)
}

// PublishEvent is one generation leaving the coordinator. It carries the
// per-shard results, not a union of them: the consumer builds what it
// serves (mapdb.Compile, core.Merge) from Results.
type PublishEvent struct {
	// Final is false for the quorum-time partial generation.
	Final bool
	// Results holds per-shard results, nil where not yet complete.
	Results []*core.Result
	// Degraded names shards not represented in this generation (still in
	// flight or retrying at quorum time, or terminally Degraded/Failed).
	Degraded []string
}

// Config tunes one coordinator run.
type Config struct {
	// Workers bounds pool concurrency; <=0 means 1 (strict shard order).
	Workers int
	// Quorum, when in [1, len(shards)-1], publishes a partial generation
	// once that many shards have completed instead of waiting for the
	// full fleet. 0 disables partial publishing.
	Quorum int
	// Retries is each shard's budget of extra attempts after the first.
	Retries int
	// StragglerTimeout is how long the coordinator waits after quorum for
	// the remaining shards before publishing the partial generation. Zero
	// publishes immediately at quorum.
	StragglerTimeout time.Duration
	// Order optionally permutes initial enqueue order (adversarial
	// completion orders in tests). Must be a permutation of shard indices
	// when set.
	Order []int
	// Obs receives fleet.* counters; Trace and Spans are the shared logs
	// the per-shard fragments merge into. All nil-safe.
	Obs        *obs.Registry
	Trace      *obs.Tracer
	Spans      *obs.SpanLog
	SpanParent obs.SpanID
	// OnPublish receives the partial and final generations, on the
	// coordinator goroutine (never concurrently).
	OnPublish func(PublishEvent)
}

// ShardResult is one shard's terminal record.
type ShardResult struct {
	State    ShardState
	Attempts int
	// Err is the last attempt's error for Degraded/Failed shards.
	Err error
}

// Summary is the coordinator's return value.
type Summary struct {
	// Results and Outputs are indexed by shard; nil for Failed shards.
	Results []*core.Result
	Outputs []*Output
	Shards  []ShardResult
}

// item is one queued attempt: which shard, and which attempt number the
// executing worker should run. Carrying the attempt in the item (rather
// than shared per-shard counters) keeps scheduling race-free by
// construction — a shard has at most one queued or running item at a time.
type item struct {
	shard, attempt int
}

// completion is one attempt's report back to the coordinator.
type completion struct {
	item
	out *Output
	err error
}

// Run schedules shards across the pool and blocks until every shard
// reaches a terminal state. It returns an error only for invalid
// configuration; per-shard failures are reported in the Summary.
func Run(cfg Config, shards []Shard) (*Summary, error) {
	n := len(shards)
	if n == 0 {
		return &Summary{}, nil
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

	// Every worker receives from one FIFO: initial items in order, retries
	// behind whatever is queued. A shard has at most one queued or running
	// item, so n slots never block a send.
	queue := make(chan item, n)
	enqueue := func(it item) {
		reg.Inc("fleet.enqueued")
		queue <- it
	}
	for _, i := range order {
		enqueue(item{shard: i})
	}

	completions := make(chan completion, workers)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := &core.Arena{}
			for {
				select {
				case <-quit:
					return
				case it := <-queue:
					reg.Inc("fleet.started")
					out, err := shards[it.shard].Run(RunCtx{Attempt: it.attempt, Arena: arena})
					completions <- completion{item: it, out: out, err: err}
				}
			}
		}()
	}

	// Coordinator loop: the only goroutine that touches per-shard terminal
	// state and publish events.
	sum := &Summary{
		Results: make([]*core.Result, n),
		Outputs: make([]*Output, n),
		Shards:  make([]ShardResult, n),
	}
	allOuts := make([][]*Output, n) // every attempt's output, for ordered log merge
	completed := 0                  // shards resolved with a result (Done or Degraded salvage)
	pending := n                    // shards not yet terminal
	var stragglerC <-chan time.Time
	var stragglerT *time.Timer
	partialDone := false

	publish := func(final bool) {
		var degraded []string
		for i := range shards {
			if sum.Shards[i].State != Done {
				degraded = append(degraded, shards[i].Name)
			}
		}
		ev := PublishEvent{
			Final:    final,
			Results:  append([]*core.Result(nil), sum.Results...),
			Degraded: degraded,
		}
		if final {
			reg.Inc("fleet.publish.final")
		} else {
			reg.Inc("fleet.publish.partial")
			reg.Add("fleet.degraded.at_quorum", int64(len(degraded)))
			partialDone = true
		}
		if cfg.OnPublish != nil {
			cfg.OnPublish(ev)
		}
	}
	maybeArmStraggler := func() {
		if partialDone || stragglerC != nil {
			return
		}
		if cfg.Quorum <= 0 || cfg.Quorum >= n || completed < cfg.Quorum || pending == 0 {
			return
		}
		if cfg.StragglerTimeout <= 0 {
			publish(false)
			return
		}
		stragglerT = time.NewTimer(cfg.StragglerTimeout)
		stragglerC = stragglerT.C
	}

	for pending > 0 {
		select {
		case c := <-completions:
			sum.Shards[c.shard].Attempts = c.attempt + 1
			if c.out != nil {
				allOuts[c.shard] = append(allOuts[c.shard], c.out)
			}
			if c.err == nil {
				sum.Shards[c.shard].State = Done
				sum.Shards[c.shard].Err = nil
				sum.Outputs[c.shard] = c.out
				sum.Results[c.shard] = c.out.Result
				completed++
				pending--
				reg.Inc("fleet.completed")
				maybeArmStraggler()
				continue
			}
			sum.Shards[c.shard].Err = c.err
			if c.attempt < cfg.Retries {
				reg.Inc("fleet.retries")
				// Any idle worker may pick the retry up, RoundState and all.
				enqueue(item{shard: c.shard, attempt: c.attempt + 1})
				continue
			}
			// Budget exhausted: salvage the best partial output if any
			// attempt produced one.
			pending--
			if last := lastOutput(allOuts[c.shard]); last != nil {
				sum.Shards[c.shard].State = Degraded
				sum.Outputs[c.shard] = last
				sum.Results[c.shard] = last.Result
				completed++
				reg.Inc("fleet.shard_degraded")
			} else {
				sum.Shards[c.shard].State = Failed
				reg.Inc("fleet.failed")
			}
			maybeArmStraggler()
		case <-stragglerC:
			stragglerC = nil
			publish(false)
		}
	}
	close(quit)
	wg.Wait()
	if stragglerT != nil {
		stragglerT.Stop()
	}

	// Deterministic log merge: fragments fold into the shared logs in
	// (shard, attempt) order regardless of which worker ran what when.
	var traces []*obs.Tracer
	for i := range shards {
		for _, out := range allOuts[i] {
			traces = append(traces, out.Trace)
			cfg.Spans.Merge(out.Spans, fsp.ID())
		}
	}
	cfg.Trace.Merge(traces...)
	fsp.SetAttr("shards", n)
	fsp.SetAttr("completed", completed)
	publish(true)
	fsp.End()
	return sum, nil
}

func lastOutput(outs []*Output) *Output {
	if len(outs) == 0 {
		return nil
	}
	return outs[len(outs)-1]
}
