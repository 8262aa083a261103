package eval

import (
	"fmt"
	"sync"

	"bdrmap/internal/core"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
)

// The fleet runner: RunFleet schedules every vantage point across a bounded
// worker pool fed from one FIFO — the deployment shape of §5.6 (many VPs
// per process) rather than one goroutine per VP — and puts each VP through
// runShard, the same runner RunVP and RunVPRemote call. RunAll is its
// one-worker case.
//
// Isolation is what makes the schedule irrelevant: each VP runs on a fresh
// probe.Engine and records into private trace/span fragments that are
// merged back in VP order once the pool drains. Datasets/Results are only
// written after that, on the caller's goroutine. So for a fixed world the
// per-VP results, and the trace and span fingerprints, are byte-identical
// for any worker count and any completion order.

// FleetOptions tunes one RunFleet invocation. The zero value runs every
// VP on one worker in VP order — exactly RunAll.
type FleetOptions struct {
	// Workers bounds pool concurrency; <=0 means 1 (strict VP order).
	Workers int
	// Order optionally permutes the order VPs are enqueued in (adversarial
	// completion orders in tests). When set it must be a permutation of
	// the VP indices.
	Order []int
	// Carry, when set, is what this run takes over from the previous one
	// on the same VPs and leaves for the next (see Carry).
	Carry *Carry
	// Gate, when set, is called when a worker takes VP i, before it
	// measures anything — a test hook for pinning completion schedules.
	Gate func(vp int)
}

// Carry is what a fleet keeps from one run to the next over the same
// vantage points: each VP's measurement memory, and one inference arena
// per worker. The round loop makes one and hands it to every round, so
// round r+1 replays what round r measured and infers on the slabs round r
// warmed. Memory follows the worker count, not the VP count, beyond the
// per-VP states. A Carry serves one RunFleet at a time.
type Carry struct {
	states []*scamper.RoundState // per VP (indexed like Net.VPs); nil unless incremental
	arenas []*core.Arena         // one per worker, grown on first use
}

// NewCarry makes the carrier for a fleet of vps vantage points. With
// incremental set, each VP carries a scamper.RoundState (trace
// transcripts, stop-set evolution, alias memo), so the driver replays
// unchanged targets without spending probes; inference always runs in
// full. Arenas are carried either way.
func NewCarry(vps int, incremental bool) *Carry {
	c := &Carry{}
	if incremental {
		c.states = make([]*scamper.RoundState, vps)
		for i := range c.states {
			c.states[i] = scamper.NewRoundState()
		}
	}
	return c
}

// workerArenas returns one arena per worker: the carrier's, grown to
// workers on first use, or without a carrier fresh ones for this run.
func (c *Carry) workerArenas(workers int) []*core.Arena {
	if c == nil {
		c = &Carry{}
	}
	for len(c.arenas) < workers {
		c.arenas = append(c.arenas, &core.Arena{})
	}
	return c.arenas
}

// RunFleet measures every VP across the worker pool and fills
// Datasets/Results like RunAll, returning the per-VP results. Already-run
// VPs (memoized Results) are reported without re-measuring. Its error is
// only for an invalid Order, and then nothing is run or recorded.
func (s *Scenario) RunFleet(cfg scamper.Config, fo FleetOptions) ([]*core.Result, error) {
	n := len(s.Net.VPs)
	order := fo.Order
	if order == nil {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	} else {
		if len(order) != n {
			return nil, fmt.Errorf("eval: fleet order has %d entries for %d VPs", len(order), n)
		}
		seen := make([]bool, n)
		for _, i := range order {
			if i < 0 || i >= n || seen[i] {
				return nil, fmt.Errorf("eval: fleet order %v is not a permutation of %d VPs", order, n)
			}
			seen[i] = true
		}
	}
	if n == 0 {
		return s.Results, nil
	}
	workers := min(max(fo.Workers, 1), n)
	arenas := fo.Carry.workerArenas(workers)
	s.Obs.Add("fleet.shards", int64(n))
	fsp := s.Spans.Begin(s.SpanRoot.ID(), "fleet", fmt.Sprintf("%d shards", n))
	fsp.SetAttr("~workers", workers)

	// One FIFO, filled and closed before the workers start: whichever
	// worker is idle takes the next VP until it runs dry.
	queue := make(chan int, n)
	for _, i := range order {
		queue <- i
	}
	close(queue)

	// Private fragments, mirroring the enabled-ness of the scenario's
	// shared logs. A worker writes only the slots of the VPs it dequeued,
	// so every index has exactly one writer.
	traces := make([]*obs.Tracer, n)
	spans := make([]*obs.SpanLog, n)
	datasets := make([]*scamper.Dataset, n)
	results := make([]*core.Result, n)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker w infers every VP it runs on arena w, which Infer
			// resets (not reallocates) each time.
			arena := arenas[w]
			for i := range queue {
				s.Obs.Inc("fleet.started")
				if fo.Gate != nil {
					fo.Gate(i)
				}
				if s.Trace.Enabled() {
					traces[i] = obs.NewTracer()
				}
				if s.Spans.Enabled() {
					spans[i] = obs.NewSpanLog(0)
				}
				sh := shard{cfg: cfg, arena: arena, trace: traces[i], spans: spans[i], mode: "fleet"}
				if fo.Carry != nil && fo.Carry.states != nil {
					sh.cfg.State = fo.Carry.states[i]
				}
				// A local run cannot fail: the engine is simulated and
				// lossless.
				datasets[i], results[i], _, _ = s.runShard(i, sh)
				s.Obs.Inc("fleet.completed")
			}
		}()
	}
	wg.Wait()

	// Deterministic log merge: fragments fold into the shared logs in VP
	// order regardless of which worker ran what when.
	for _, sp := range spans {
		s.Spans.Merge(sp, fsp.ID())
	}
	s.Trace.Merge(traces...)
	fsp.SetAttr("shards", n)
	fsp.SetAttr("completed", n)
	fsp.End()
	copy(s.Datasets, datasets)
	copy(s.Results, results)
	return s.Results, nil
}
