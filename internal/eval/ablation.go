package eval

import (
	"bdrmap/internal/alias"
	"bdrmap/internal/core"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// StopSetSavings compares probing cost with and without doubletree's stop
// sets on identical topologies (§5.3's efficiency mechanism): the global
// one, which halts a walk at a known first external hop, and the local
// one, which resumes a walk toward a routed prefix where the last trace
// toward it left the host network.
type StopSetSavings struct {
	PacketsWith, PacketsWithout int64
	TracesStopped               int
	HopsSpliced                 int64 // hops resumed walks copied instead of probing
	// PacketsWith by operation: the live traces' packets before and from
	// their first external hop, and the alias stage's direct probes by
	// what each was for.
	TraceNear, TraceFar         int64
	Sweep, Mercator, Pick, Ally int64
}

// SavedFrac returns the fraction of probe packets the stop sets avoided.
func (ss StopSetSavings) SavedFrac() float64 {
	if ss.PacketsWithout == 0 {
		return 0
	}
	return 1 - float64(ss.PacketsWith)/float64(ss.PacketsWithout)
}

// vp0 builds a fresh (prof, seed) scenario, runs its first vantage point —
// cfg carries the one thing a caller varies — and validates the result
// against ground truth.
func vp0(prof topo.Profile, seed int64, cfg scamper.Config) (*Scenario, Validation) {
	s := Build(prof, seed)
	return s, s.Validate(s.RunVP(0, cfg))
}

// MeasureStopSet runs the driver twice on fresh scenarios.
func MeasureStopSet(prof topo.Profile, seed int64) StopSetSavings {
	with, _ := vp0(prof, seed, scamper.Config{})
	without, _ := vp0(prof, seed, scamper.Config{DisableStopSet: true})
	n := func(name string) int64 { return with.Obs.Counter(name).Load() }
	return StopSetSavings{
		PacketsWith:    n("probe.packets_sent"),
		PacketsWithout: without.Obs.Counter("probe.packets_sent").Load(),
		TracesStopped:  with.Datasets[0].Stats.TracesStopped,
		HopsSpliced:    n("driver.trace.hops_spliced"),
		TraceNear:      n("driver.trace.packets.near"),
		TraceFar:       n("driver.trace.packets.far"),
		Sweep:          n("driver.alias.probes.sweep"),
		Mercator:       n("driver.alias.probes.mercator"),
		Pick:           n("driver.alias.probes.pick"),
		Ally:           n("driver.alias.probes.ally"),
	}
}

// Ablation compares a baseline run against a variant.
type Ablation struct {
	Name                    string
	BaseAcc, VariantAcc     float64
	BaseLinks, VariantLinks int
}

// AblationNoAlias measures figure 13's failure mode: without alias
// resolution, unmerged host interfaces masquerade as neighbor routers.
func AblationNoAlias(prof topo.Profile, seed int64) Ablation {
	_, vb := vp0(prof, seed, scamper.Config{})
	_, vv := vp0(prof, seed, scamper.Config{DisableAlias: true})
	return Ablation{
		Name:    "no-alias-resolution",
		BaseAcc: vb.Accuracy(), VariantAcc: vv.Accuracy(),
		BaseLinks: vb.Total, VariantLinks: vv.Total,
	}
}

// AblationNoThirdParty disables §5.4.5 third-party detection. Inference
// reruns on the same dataset (the heuristics are pure given measurements).
func AblationNoThirdParty(prof topo.Profile, seed int64) Ablation {
	s, vb := vp0(prof, seed, scamper.Config{})
	variantRes := core.Infer(core.Input{
		Data: s.Datasets[0], View: s.View, Rel: s.Rel, RIR: s.RIR, IXP: s.IXP,
		HostASN: s.Net.HostASN, Siblings: s.Sibs,
		Opts: core.Options{NoThirdParty: true},
	})
	vv := s.Validate(variantRes)
	return Ablation{
		Name:    "no-third-party-detection",
		BaseAcc: vb.Accuracy(), VariantAcc: vv.Accuracy(),
		BaseLinks: vb.Total, VariantLinks: vv.Total,
	}
}

// AblationSingleAddr probes one address per block instead of up to five
// (§5.3's retry rule).
func AblationSingleAddr(prof topo.Profile, seed int64) Ablation {
	_, vb := vp0(prof, seed, scamper.Config{})
	_, vv := vp0(prof, seed, scamper.Config{MaxAddrsPerBlock: 1})
	return Ablation{
		Name:    "single-address-per-block",
		BaseAcc: vb.Accuracy(), VariantAcc: vv.Accuracy(),
		BaseLinks: vb.Total, VariantLinks: vv.Total,
	}
}

// AblationAllyOneRound weakens Ally to one round with no repetition
// (§5.3 "limit false aliases" repeats five times at five-minute
// intervals); reports resulting alias false positives.
type AliasAblation struct {
	RoundsFive, RoundsOne struct {
		Positives, FalsePositives int
	}
}

// MeasureAllyRounds counts false-positive alias pairs under both settings.
func MeasureAllyRounds(prof topo.Profile, seed int64) AliasAblation {
	var out AliasAblation
	measure := func(rounds int) (pos, falsePos int) {
		s, _ := vp0(prof, seed, scamper.Config{AliasCfg: alias.Config{AllyRounds: rounds}})
		for _, pair := range s.Datasets[0].Resolver.Positives() {
			pos++
			ra := s.Net.RouterByAddr(pair[0])
			rb := s.Net.RouterByAddr(pair[1])
			if ra != nil && rb != nil && ra.ID != rb.ID {
				falsePos++
			}
		}
		return pos, falsePos
	}
	out.RoundsFive.Positives, out.RoundsFive.FalsePositives = measure(5)
	out.RoundsOne.Positives, out.RoundsOne.FalsePositives = measure(1)
	return out
}
