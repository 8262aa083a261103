package eval

import (
	"fmt"
	"sync"

	"bdrmap/internal/alias"
	"bdrmap/internal/core"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
)

// The fleet runner: RunFleet schedules every vantage point across a bounded
// worker pool fed from one FIFO — the deployment shape of §5.6 (many VPs
// per process) rather than one goroutine per VP — and puts each VP through
// runShard's three steps, the ones RunVP and RunVPRemote take back to
// back. RunAll is its one-worker case.
//
// A fleet asks each alias question once. Its VPs share one alias book
// (alias.Book): VP i's alias stage consults what VPs 0…i-1 settled before
// it probes, and its evidence joins the book when the stage ends. So the
// run has three phases per VP: the probe stage, in the pool; the alias
// stage, one VP at a time in VP index order, run by whichever worker
// finished the probe stage the chain was waiting on; and inference, in
// the pool again, taken before any further probe stage. A VP's alias
// stage never waits on a VP of higher index, so a worker held on one VP
// does not stop the VPs below it from completing.
//
// Isolation is what makes the schedule irrelevant: each VP runs on a fresh
// probe.Engine, its alias stage sees the book of exactly the VPs below it,
// and it records into private trace/span fragments that are merged back
// in VP order once the pool drains. Datasets/Results are only written
// after that, on the caller's goroutine. So for a fixed world the per-VP
// results, and the trace and span fingerprints, are byte-identical for any
// worker count and any completion order.

// FleetOptions tunes one RunFleet invocation. The zero value runs every
// VP on one worker in VP order — exactly RunAll.
type FleetOptions struct {
	// Workers bounds pool concurrency; <=0 means 1 (strict VP order).
	Workers int
	// Order optionally permutes the order VPs are enqueued in (adversarial
	// completion orders in tests). When set it must be a permutation of
	// the VP indices.
	Order []int
	// States, when set, is each VP's measurement memory across runs
	// (indexed like Net.VPs): the driver replays what the VP's last run
	// measured of an unchanged path instead of probing it again, and
	// leaves this run's traces and alias verdicts for the next. Inference
	// always runs in full. Nil runs every VP from scratch; otherwise it
	// must have one state per VP.
	States []*scamper.RoundState
	// Gate, when set, is called when a worker takes VP i, before it
	// measures anything — a test hook for pinning completion schedules.
	Gate func(vp int)
}

// RunFleet measures every VP across the worker pool and fills
// Datasets/Results like RunAll, returning the per-VP results. A VP already
// recorded from the same run is reported without re-measuring, and its
// alias evidence still joins the book. Its error is only for an invalid
// Order or States, and then nothing is run or recorded.
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
	if fo.States != nil && len(fo.States) != n {
		return nil, fmt.Errorf("eval: fleet states has %d entries for %d VPs", len(fo.States), n)
	}
	if n == 0 {
		return s.Results, nil
	}
	workers := min(max(fo.Workers, 1), n)
	s.Obs.Add("fleet.shards", int64(n))
	fsp := s.Spans.Begin(s.SpanRoot.ID(), "fleet", fmt.Sprintf("%d shards", n))
	fsp.SetAttr("~workers", workers)

	// One FIFO of probe stages, filled and closed before the workers
	// start: whichever worker is idle takes the next VP until it runs dry.
	// Inference stages queue on infers as the alias chain releases them.
	probes := make(chan int, n)
	for _, i := range order {
		probes <- i
	}
	close(probes)
	infers := make(chan int, n)

	// Private fragments, mirroring the enabled-ness of the scenario's
	// shared logs. A VP's stages run one after another, so every index
	// has exactly one writer at a time.
	traces := make([]*obs.Tracer, n)
	spans := make([]*obs.SpanLog, n)
	runs := make([]*vpRun, n)
	made := make([]run, n)
	datasets := make([]*scamper.Dataset, n)
	results := make([]*core.Result, n)

	// The alias chain: VP next's alias stage runs once VP next is probed.
	// The worker that finds the chain idle runs every stage that is ready
	// and hands each VP on to inference.
	book := alias.NewBook()
	var mu sync.Mutex
	probed := make([]bool, n)
	next, chaining := 0, false
	chain := func(i int) {
		mu.Lock()
		probed[i] = true
		if chaining {
			mu.Unlock()
			return
		}
		chaining = true
		for next < n && probed[next] {
			j := next
			next++
			mu.Unlock()
			runs[j].resolve()
			book.Learn(runs[j].ds.Resolver)
			infers <- j
			mu.Lock()
		}
		chaining = false
		if next == n {
			close(infers)
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			finish := func(i int) {
				// A local run cannot fail: the engine is simulated and
				// lossless.
				datasets[i], results[i], _, _ = s.finishShard(runs[i])
				s.Obs.Inc("fleet.completed")
			}
			probes := probes
			for {
				// An inference that is ready goes before another probe stage.
				select {
				case i, ok := <-infers:
					if !ok {
						return
					}
					finish(i)
					continue
				default:
				}
				select {
				case i, ok := <-infers:
					if !ok {
						return
					}
					finish(i)
				case i, ok := <-probes:
					if !ok {
						probes = nil // drained: wait on inference alone
						continue
					}
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
					sh := shard{cfg: cfg, trace: traces[i], spans: spans[i], mode: "fleet"}
					if fo.States != nil {
						sh.cfg.State = fo.States[i]
					}
					if i > 0 {
						sh.book = book
					}
					made[i] = sh.run()
					runs[i], _ = s.startShard(i, sh) // a local run always starts
					chain(i)
				}
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
	copy(s.made, made)
	return s.Results, nil
}
