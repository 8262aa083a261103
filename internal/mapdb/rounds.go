package mapdb

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"

	"bdrmap/internal/eval"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// Rounds drives the continuous-monitoring loop the paper describes
// operationally (§2, §6): re-run the full measurement and inference
// pipeline against a world that changes between rounds, and publish each
// round's compiled map as a new generation. The churn schedule is seeded
// and deterministic — round r of (profile, seed) always provisions and
// de-provisions the same interconnects — so generation diffs are
// reproducible test and demo material rather than flake.
//
// With Incremental set, rounds after the first reuse the previous round's
// measurement memory: each VP's scamper.RoundState keeps the last trace to
// every destination, a destination whose path signature is unchanged and
// whose trace the stop set would halt where it halted replays that trace
// without spending probes, and alias verdicts replay for addresses no
// changed trace touched (Dataset.Dirty). Inference runs
// in full every round. Verify cross-checks every incremental round against
// a from-scratch run on an identically mutated shadow world.

// RoundsConfig configures one deterministic multi-round run.
type RoundsConfig struct {
	// Profile and Seed pick the synthetic world (as topo.Generate).
	Profile topo.Profile
	Seed    int64
	// Rounds is the number of generations to publish (at least 1).
	Rounds int

	// FleetWorkers runs each round's vantage points on that many fleet
	// coordinator workers (<=1 keeps strict VP order on one worker). The
	// round's served map is byte-identical for any worker count.
	FleetWorkers int

	// Incremental carries per-VP measurement state (each destination's
	// last trace, alias verdicts) across rounds, so unchanged parts of the
	// world are replayed rather than re-probed.
	Incremental bool
	// Verify, with Incremental, runs every round a second time from
	// scratch on an identically mutated shadow world and returns an error
	// unless the incremental map is byte-identical: same served link set,
	// same owner attributions, same per-VP trace fingerprints.
	Verify bool
	// Obs, if non-nil, replaces each round's scenario registry so driver
	// and cache counters (rounds.cache.*, driver.traces_*) aggregate
	// across rounds, and receives the rounds.round stage timer. The
	// Verify shadow runs never report into it.
	Obs *obs.Registry

	// Spans, if non-nil, replaces each round's scenario span log so the
	// whole run records one tree: round spans parented under SpanParent,
	// per-VP subtrees under each round, and compile/publish stage spans
	// bracketing the serving handoff. The Verify shadow runs keep their
	// own private span logs and never report into it.
	Spans      *obs.SpanLog
	SpanParent obs.SpanID
}

// RoundEvent records what changed in the world before one generation was
// measured, for operator-facing logs.
type RoundEvent struct {
	Gen    int
	Action string
	// TraceFP fingerprints the round's measurement (every VP's traces,
	// in VP order); two rounds that observed identical paths
	// carry the same fingerprint regardless of how many probes were spent
	// reconfirming them.
	TraceFP uint64
}

// RunRounds measures cfg.Rounds generations into store. Between rounds the
// world mutates — odd rounds attach a new customer at a host border router
// (topo.AttachCustomer), even rounds de-provision one existing neighbor
// (topo.Depeer) — mirroring the churn the CAIDA deployment tracks.
func RunRounds(cfg RoundsConfig, store *Store) ([]RoundEvent, error) {
	events, _, err := RunRoundsFull(cfg, store)
	return events, err
}

// RunRoundsFull is RunRounds, additionally returning the final round's
// scenario so callers (tslpmon, tests) can inspect the last generation's
// datasets and results without recompiling them.
func RunRoundsFull(cfg RoundsConfig, store *Store) ([]RoundEvent, *eval.Scenario, error) {
	if cfg.Rounds < 1 {
		return nil, nil, fmt.Errorf("mapdb: Rounds must be >= 1, got %d", cfg.Rounds)
	}
	n := topo.Generate(cfg.Profile, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x6d617064)) // "mapd"

	// The Verify shadow world evolves in lockstep: same generator, same
	// rng stream, same mutation schedule — so round r's scratch run sees
	// bit-for-bit the world the incremental run measured.
	var vn *topo.Network
	var vrng *rand.Rand
	if cfg.Incremental && cfg.Verify {
		vn = topo.Generate(cfg.Profile, cfg.Seed)
		vrng = rand.New(rand.NewSource(cfg.Seed ^ 0x6d617064))
	}

	// What every round hands the next, incrementally: one RoundState per
	// VP (last traces, alias verdicts). Inference results are not carried.
	var states []*scamper.RoundState
	if cfg.Incremental {
		states = roundStates(len(n.VPs))
	}

	var s *eval.Scenario
	round := func(r int) (RoundEvent, error) {
		span := cfg.Obs.StartStage("rounds.round")
		defer span.End()
		rsp := cfg.Spans.Begin(cfg.SpanParent, "round", fmt.Sprintf("round %d", r))
		defer rsp.End()
		// The build stage is everything a round pays before it measures:
		// the churn, the topology rebuild and every derived input.
		bsp := cfg.Spans.Begin(rsp.ID(), "stage", "build")
		action := "baseline measurement"
		if r > 0 {
			var err error
			action, err = mutateWorld(n, rng, r)
			if err != nil {
				bsp.End()
				return RoundEvent{}, err
			}
			n.Build()
		}
		s = eval.BuildFromNetwork(n, cfg.Seed)
		bsp.SetAttr("atoms", s.Tab.Atoms())
		bsp.SetAttr("prefixes", len(s.Tab.Prefixes()))
		bsp.End()
		rsp.SetAttr("action", action)
		if r > 0 && vn != nil {
			if _, err := mutateWorld(vn, vrng, r); err != nil {
				return RoundEvent{}, err
			}
			vn.Build()
		}
		if cfg.Obs != nil {
			s.Obs = cfg.Obs
			s.Engine.SetObs(cfg.Obs)
		}
		if cfg.Spans != nil {
			// Per-VP span subtrees for this round nest under the round
			// span rather than the scenario's own (discarded) run root.
			s.Spans = cfg.Spans
			s.SpanRoot = rsp
		}
		if _, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{Workers: cfg.FleetWorkers, States: states}); err != nil {
			return RoundEvent{}, err
		}
		csp := cfg.Spans.Begin(rsp.ID(), "stage", "compile")
		snap := Compile(n.HostASN, s.Results)
		csp.SetAttr("links", snap.NumLinks())
		csp.End()
		psp := cfg.Spans.Begin(rsp.ID(), "stage", "publish")
		store.Publish(snap)
		psp.SetAttr("gen", snap.Gen())
		psp.End()
		if vn != nil {
			if err := verifyRound(cfg, r, vn, s, snap); err != nil {
				return RoundEvent{}, err
			}
		}
		rsp.SetAttr("gen", snap.Gen())
		// The event names the generation of the snapshot just published —
		// not store.Current().Gen(), which a concurrent publisher could
		// have already advanced past ours.
		return RoundEvent{Gen: snap.Gen(), Action: action, TraceFP: roundFingerprint(s.Datasets)}, nil
	}
	var events []RoundEvent
	for r := 0; r < cfg.Rounds; r++ {
		ev, err := round(r)
		if err != nil {
			return events, nil, err
		}
		events = append(events, ev)
	}
	return events, s, nil
}

// roundStates makes an empty cross-round memory for each of vps VPs.
func roundStates(vps int) []*scamper.RoundState {
	states := make([]*scamper.RoundState, vps)
	for i := range states {
		states[i] = scamper.NewRoundState()
	}
	return states
}

// roundFingerprint folds the per-VP trace fingerprints (VP order) into one
// round identity.
func roundFingerprint(dss []*scamper.Dataset) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, ds := range dss {
		if ds == nil {
			continue
		}
		binary.LittleEndian.PutUint64(b[:], ds.TraceFingerprint())
		h.Write(b[:])
	}
	return h.Sum64()
}

// verifyRound is the mandatory equivalence mode: a from-scratch run on the
// shadow world must produce byte-identical traces, owner attributions, and
// served links. Any divergence is a bug in the incremental engine, not a
// degradation to tolerate — hence an error, not a metric.
func verifyRound(cfg RoundsConfig, r int, vn *topo.Network, s *eval.Scenario, snap *Snapshot) error {
	vs := eval.BuildFromNetwork(vn, cfg.Seed)
	vs.RunAll()
	vsnap := Compile(vn.HostASN, vs.Results)
	for i := range s.Datasets {
		got, want := s.Datasets[i].TraceFingerprint(), vs.Datasets[i].TraceFingerprint()
		if got != want {
			return fmt.Errorf("mapdb: round %d VP %d: incremental trace fingerprint %016x != scratch %016x", r, i, got, want)
		}
	}
	if !reflect.DeepEqual(snap.links, vsnap.links) {
		return fmt.Errorf("mapdb: round %d: incremental link set diverged from scratch (%d vs %d links)",
			r, len(snap.links), len(vsnap.links))
	}
	if !reflect.DeepEqual(snap.ownerAddrs, vsnap.ownerAddrs) || !reflect.DeepEqual(snap.owners, vsnap.owners) {
		return fmt.Errorf("mapdb: round %d: incremental owner attributions diverged from scratch (%d vs %d addrs)",
			r, len(snap.ownerAddrs), len(vsnap.ownerAddrs))
	}
	return nil
}

// mutateWorld applies round r's deterministic churn and describes it.
func mutateWorld(n *topo.Network, rng *rand.Rand, r int) (string, error) {
	if r%2 == 1 {
		border := hostBorder(n)
		if border < 0 {
			return "", fmt.Errorf("mapdb: no host border router to attach at")
		}
		// The lowest unused ASN from 65000+r up: larger profiles already
		// number ASes in that range.
		asn := topo.ASN(65000 + r)
		for n.ASes[asn] != nil {
			asn++
		}
		if _, err := topo.AttachCustomer(n, border, asn); err != nil {
			return "", err
		}
		return fmt.Sprintf("attached customer %v at router %d", asn, border), nil
	}
	victims := neighborASes(n)
	if len(victims) == 0 {
		return "no neighbor left to de-provision", nil
	}
	victim := victims[rng.Intn(len(victims))]
	removed := topo.Depeer(n, victim)
	return fmt.Sprintf("de-provisioned %d link(s) to %v", removed, victim), nil
}

// hostBorder returns the first host-side border router, or -1. "First" is
// well-defined: InterdomainLinks is fully ordered by (NearRtr, FarRtr,
// first interface address).
func hostBorder(n *topo.Network) topo.RouterID {
	for _, lt := range n.InterdomainLinks(n.HostASN) {
		return lt.NearRtr
	}
	return -1
}

// neighborASes lists the host's currently attached neighbor ASes, sorted
// so the rng draw is deterministic.
func neighborASes(n *topo.Network) []topo.ASN {
	seen := make(map[topo.ASN]bool)
	for _, lt := range n.InterdomainLinks(n.HostASN) {
		seen[lt.FarAS] = true
	}
	out := make([]topo.ASN, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
