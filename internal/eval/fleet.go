package eval

import (
	"fmt"
	"time"

	"bdrmap/internal/core"
	"bdrmap/internal/faults"
	"bdrmap/internal/fleet"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
)

// The fleet runner: RunAll and RunFleet put every vantage point through
// the internal/fleet coordinator as one shard, and every shard attempt
// through runShard — the same runner RunVP and RunVPRemote call.
//
// Isolation is what makes the schedule irrelevant: each attempt runs on a
// fresh probe.Engine and records into private trace/span fragments the
// coordinator merges back in VP order. Results/Datasets are only written
// after the pool drains, on the caller's goroutine.

// FleetVP configures one vantage point's transport for RunFleet.
type FleetVP struct {
	// Remote runs the VP as a §5.8 agent dialing the scenario's
	// in-process controller over loopback TCP, instead of an in-process
	// LocalProber.
	Remote bool
	// FaultSpecs injects deterministic faults into the remote session,
	// one spec per attempt: attempt k uses FaultSpecs[min(k, len-1)], so
	// {"seed=3,kill=30", ""} means "kill the session mid-shard once, then
	// let the retry run clean". Empty means a clean link on every attempt.
	FaultSpecs []string
}

// FleetOptions tunes one RunFleet invocation. The zero value runs every
// VP locally on one worker in VP order — exactly RunAll.
type FleetOptions struct {
	// Workers, Quorum, Retries, StragglerTimeout and Order are the
	// coordinator knobs; see fleet.Config.
	Workers          int
	Quorum           int
	Retries          int
	StragglerTimeout time.Duration
	Order            []int
	// VPs overrides transport per VP index; absent entries run locally.
	VPs map[int]FleetVP
	// States carries per-VP cross-round state (indexed like Net.VPs): each
	// VP's measurement memory from the previous round (trace transcripts,
	// stop-set evolution, alias memo). The driver replays unchanged targets
	// without spending probes; inference always runs in full. A shard's
	// RoundState stays with the shard across retries and worker
	// reassignment.
	States []*scamper.RoundState
	// Opts is passed to every shard's inference.
	Opts core.Options
	// OnPublish receives the quorum-time partial and the final merged
	// generations (see fleet.Config.OnPublish).
	OnPublish func(fleet.PublishEvent)
	// Gate, when set, is called at the start of every attempt of VP i —
	// a test hook for pinning straggler and quorum schedules.
	Gate func(vp int)
}

// RunFleet measures every VP through the fleet coordinator and fills
// Datasets/Results like RunAll. Already-run VPs (memoized Results) are
// reported without re-measuring. The returned summary carries per-shard
// dispositions and results; err is non-nil only for configuration or
// listener failures — per-shard failures are reported in the summary
// (and leave that VP's Results slot nil).
func (s *Scenario) RunFleet(cfg scamper.Config, fo FleetOptions) (*fleet.Summary, error) {
	// Fault specs are configuration: a malformed one fails the call before
	// any shard is scheduled, not a shard after it has burnt its retries.
	specs := make(map[int][]faults.Spec)
	var link *scamper.Controller
	for i, vp := range fo.VPs {
		if !vp.Remote {
			continue
		}
		strs := vp.FaultSpecs
		if len(strs) == 0 {
			strs = []string{""} // a clean link
		}
		for k, str := range strs {
			spec, err := faults.Parse(str)
			if err != nil {
				return nil, fmt.Errorf("eval: VP %d fault spec %d: %w", i, k, err)
			}
			specs[i] = append(specs[i], spec)
		}
	}
	if len(specs) > 0 {
		var err error
		if link, err = s.listenRemote("127.0.0.1:0"); err != nil {
			return nil, err
		}
		defer link.Close()
	}

	shards := make([]fleet.Shard, len(s.Net.VPs))
	for i := range s.Net.VPs {
		i := i
		shards[i] = fleet.Shard{
			Name: s.Net.VPs[i].Name,
			Run: func(ctx fleet.RunCtx) (*fleet.Output, error) {
				if fo.Gate != nil {
					fo.Gate(i)
				}
				sh := shard{cfg: cfg, opts: fo.Opts, arena: ctx.Arena, mode: "fleet", attempt: ctx.Attempt}
				// Private fragments, mirroring the enabled-ness of the
				// scenario's shared logs.
				if s.Trace.Enabled() {
					sh.trace = obs.NewTracer(0)
				}
				if s.Spans.Enabled() {
					sh.spans = obs.NewSpanLog(0)
				}
				// A shard's RoundState stays with the shard across retries
				// and worker reassignment: a retry's agent redial resumes
				// against it.
				if fo.States != nil {
					sh.cfg.State = fo.States[i]
				}
				if sp := specs[i]; sp != nil {
					k := ctx.Attempt
					if k >= len(sp) {
						k = len(sp) - 1
					}
					sh.mode, sh.link, sh.faults = "fleet-remote", link, sp[k]
				}
				// A lost session returns its partial output *and* an error:
				// the coordinator retries within budget or keeps the salvage
				// and marks the shard degraded.
				ds, res, _, err := s.runShard(i, sh)
				if err != nil {
					err = fmt.Errorf("eval: fleet shard %s attempt %d: %w", s.Net.VPs[i].Name, ctx.Attempt, err)
				}
				if res == nil {
					return nil, err
				}
				return &fleet.Output{Result: res, Trace: sh.trace, Spans: sh.spans, Aux: ds}, err
			},
		}
	}

	sum, err := fleet.Run(fleet.Config{
		Workers:          fo.Workers,
		Quorum:           fo.Quorum,
		Retries:          fo.Retries,
		StragglerTimeout: fo.StragglerTimeout,
		Order:            fo.Order,
		Obs:              s.Obs,
		Trace:            s.Trace,
		Spans:            s.Spans,
		SpanParent:       s.SpanRoot.ID(),
		OnPublish:        fo.OnPublish,
	}, shards)
	if err != nil {
		return nil, err
	}
	for i, out := range sum.Outputs {
		if out == nil {
			continue
		}
		if ds, ok := out.Aux.(*scamper.Dataset); ok {
			s.Datasets[i] = ds
		}
		s.Results[i] = out.Result
	}
	return sum, nil
}
