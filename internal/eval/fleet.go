package eval

import (
	"bdrmap/internal/core"
	"bdrmap/internal/fleet"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
)

// The fleet runner: RunAll and RunFleet put every vantage point through
// the internal/fleet coordinator as one shard, and every shard through
// runShard — the same runner RunVP and RunVPRemote call.
//
// Isolation is what makes the schedule irrelevant: each shard runs on a
// fresh probe.Engine and records into private trace/span fragments the
// coordinator merges back in VP order. Results/Datasets are only written
// after the pool drains, on the caller's goroutine.

// FleetOptions tunes one RunFleet invocation. The zero value runs every
// VP on one worker in VP order — exactly RunAll.
type FleetOptions struct {
	// Workers and Order are the coordinator knobs; see fleet.Config.
	Workers int
	Order   []int
	// States carries per-VP cross-round state (indexed like Net.VPs): each
	// VP's measurement memory from the previous round (trace transcripts,
	// stop-set evolution, alias memo). The driver replays unchanged targets
	// without spending probes; inference always runs in full.
	States []*scamper.RoundState
	// Gate, when set, is called at the start of VP i's shard — a test hook
	// for pinning completion schedules.
	Gate func(vp int)
}

// RunFleet measures every VP through the fleet coordinator and fills
// Datasets/Results like RunAll, returning the per-VP results. Already-run
// VPs (memoized Results) are reported without re-measuring. Its error is
// only for an invalid Order.
func (s *Scenario) RunFleet(cfg scamper.Config, fo FleetOptions) ([]*core.Result, error) {
	shards := make([]fleet.Shard, len(s.Net.VPs))
	for i := range s.Net.VPs {
		shards[i] = fleet.Shard{
			Run: func(arena *core.Arena) *fleet.Output {
				if fo.Gate != nil {
					fo.Gate(i)
				}
				sh := shard{cfg: cfg, arena: arena, mode: "fleet"}
				// Private fragments, mirroring the enabled-ness of the
				// scenario's shared logs.
				if s.Trace.Enabled() {
					sh.trace = obs.NewTracer(0)
				}
				if s.Spans.Enabled() {
					sh.spans = obs.NewSpanLog(0)
				}
				if fo.States != nil {
					sh.cfg.State = fo.States[i]
				}
				// A local shard cannot fail: the engine is simulated and
				// lossless.
				ds, res, _, _ := s.runShard(i, sh)
				return &fleet.Output{Result: res, Trace: sh.trace, Spans: sh.spans, Aux: ds}
			},
		}
	}

	outs, err := fleet.Run(fleet.Config{
		Workers:    fo.Workers,
		Order:      fo.Order,
		Obs:        s.Obs,
		Trace:      s.Trace,
		Spans:      s.Spans,
		SpanParent: s.SpanRoot.ID(),
	}, shards)
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		s.Datasets[i] = out.Aux.(*scamper.Dataset)
		s.Results[i] = out.Result
	}
	return s.Results, nil
}
