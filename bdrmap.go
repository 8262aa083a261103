// Package bdrmap is a reproduction of "bdrmap: Inference of Borders
// Between IP Networks" (IMC 2016): a system that infers, for the network
// hosting a traceroute vantage point, every interdomain link attaching it
// to neighbor networks — at the granularity of individual border routers —
// together with the neighbor AS operating the far side of each link.
//
// The package is the public facade over the full pipeline:
//
//   - a synthetic router-level Internet with the address-assignment
//     conventions and traceroute idiosyncrasies the paper's heuristics
//     exist to handle (internal/topo, internal/probe),
//   - valley-free BGP route computation and a public route-collector view
//     (internal/bgp), AS-relationship inference (internal/asrel), RIR
//     delegations (internal/rir), IXP prefix lists (internal/ixp), and
//     sibling curation (internal/sibling),
//   - the scamper-style measurement driver with doubletree stop sets and
//     alias resolution (internal/scamper, internal/alias),
//   - the border-inference heuristics of §5.4 (internal/core), and
//   - the paper's evaluation harness (internal/eval).
//
// Quickstart:
//
//	world := bdrmap.NewWorld(bdrmap.Tiny(), 1)
//	report := world.MapBorders(0)
//	for _, l := range report.Links {
//		fmt.Println(l)
//	}
package bdrmap

import (
	"fmt"
	"io"
	"sort"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/export"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// ASN identifies an autonomous system.
type ASN = topo.ASN

// Metrics is a point-in-time copy of the pipeline's observability
// registry: counters, maxes, histograms, and per-stage timers from the
// probe engine, the measurement driver, alias resolution, the inference
// core, and validation. See Snapshot.
type Metrics = obs.Snapshot

// Profile describes a synthetic internetwork scenario.
type Profile = topo.Profile

// Tiny is a minimal world for tests and quickstarts.
func Tiny() Profile { return topo.TinyProfile() }

// RE mirrors the paper's research-and-education validation network (§5.6).
func RE() Profile { return topo.REProfile() }

// SmallAccess mirrors the paper's small access network (§5.6).
func SmallAccess() Profile { return topo.SmallAccessProfile() }

// LargeAccess mirrors the large U.S. access network of §5.6/§6 (19 VPs).
func LargeAccess() Profile { return topo.LargeAccessProfile() }

// Tier1 mirrors the paper's Tier-1 validation network (§5.6).
func Tier1() Profile { return topo.Tier1Profile() }

// Enterprise is a customer-less host network (an extension profile).
func Enterprise() Profile { return topo.EnterpriseProfile() }

// RemotePeering has IXP members peering over long-haul circuits from
// distant metros (an extension profile stressing §5.4's distance
// assumptions).
func RemotePeering() Profile { return topo.RemotePeeringProfile() }

// Hypergiant has one content AS peering with the host and directly with
// most of its customers (hierarchy flattening; an extension profile).
func Hypergiant() Profile { return topo.HypergiantProfile() }

// RouteServerMix mixes hidden route-server and visible bilateral sessions
// at the same IXPs (an extension profile).
func RouteServerMix() Profile { return topo.RouteServerMixProfile() }

// RegionalVP concentrates every VP on the west coast of a wide footprint
// (an extension profile making the figure 15/16 placement effect extreme).
func RegionalVP() Profile { return topo.RegionalVPProfile() }

// ProfileByName looks up any built-in profile (paper validation networks
// and extension scenarios alike) by its Name field; "re" is accepted as
// an alias for "r&e".
func ProfileByName(name string) (Profile, bool) { return topo.ProfileByName(name) }

// ProfileNames lists every built-in profile name, in catalog order.
func ProfileNames() []string {
	ps := topo.BuiltinProfiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// World is one synthetic internetwork plus every input bdrmap needs:
// the public BGP view, inferred AS relationships, RIR delegations, IXP
// prefixes, and the curated sibling set of the hosting network.
type World struct {
	s *eval.Scenario
}

// NewWorld generates a deterministic world from a profile and seed.
func NewWorld(prof Profile, seed int64) *World {
	return &World{s: eval.Build(prof, seed)}
}

// LoadWorld reconstructs a world serialized with SaveWorld (or
// `topogen -save`): the same topology, re-derived inputs, fresh engine.
func LoadWorld(r io.Reader, seed int64) (*World, error) {
	n, err := topo.Load(r)
	if err != nil {
		return nil, err
	}
	return &World{s: eval.BuildFromNetwork(n, seed)}, nil
}

// SaveWorld serializes the world's topology for later LoadWorld.
func (w *World) SaveWorld(out io.Writer) error { return w.s.Net.Save(out) }

// HostASN returns the AS hosting the vantage points.
func (w *World) HostASN() ASN { return w.s.Net.HostASN }

// NumVPs returns the number of vantage points deployed.
func (w *World) NumVPs() int { return len(w.s.Net.VPs) }

// VPName returns the name of vantage point i.
func (w *World) VPName(i int) string { return w.s.Net.VPs[i].Name }

// Scenario exposes the underlying evaluation scenario for advanced use
// (figures, ablations, direct access to the probe engine).
func (w *World) Scenario() *eval.Scenario { return w.s }

// Snapshot copies the world's pipeline metrics. The deterministic portion
// (everything except wall-clock stage timings) is identical across
// repeated runs of the same profile and seed; compare with
// Snapshot().Fingerprint().
func (w *World) Snapshot() Metrics { return w.s.Obs.Snapshot() }

// TraceEvent is one decision-provenance event: a sequenced, simulated-time
// stamped record of what a pipeline stage observed or decided, with the
// evidence behind it as key/value attributes.
type TraceEvent = obs.Event

// TraceEvents returns the provenance events recorded so far, in order.
func (w *World) TraceEvents() []TraceEvent { return w.s.Trace.Events() }

// WriteTrace exports the provenance event log as JSON Lines, one event per
// line, suitable for `bdrmap -explain` over -trace-in.
func (w *World) WriteTrace(out io.Writer) error { return w.s.Trace.WriteJSONL(out) }

// TraceFingerprint hashes the deterministic portion of the provenance log
// (sequence, simulated timestamps, stages, kinds, subjects, and all
// non-volatile attributes). For a fixed profile, seed, and configuration
// it is byte-identical across runs regardless of worker count.
func (w *World) TraceFingerprint() string { return w.s.Trace.Fingerprint() }

// SpanRecord is one completed timeline span — the duration half of the
// observability layer, where TraceEvent is the decision half. Spans form
// a tree (run → round → vp → stage → target, plus remote agents' session
// spans) on the simulated-time axis.
type SpanRecord = obs.SpanRecord

// SpanRecords returns the span tree recorded so far: completed spans in
// completion order followed by the still-open ones (the run root stays
// open for the world's life).
func (w *World) SpanRecords() []SpanRecord { return w.s.Spans.Snapshot() }

// WriteSpans exports the span tree as JSON Lines, one span per line.
func (w *World) WriteSpans(out io.Writer) error { return w.s.Spans.WriteJSONL(out) }

// WriteChromeTrace exports the span tree in Chrome trace_event format —
// load the file in Perfetto (ui.perfetto.dev) or chrome://tracing to see
// where the run's simulated time went.
func (w *World) WriteChromeTrace(out io.Writer) error { return w.s.Spans.WriteChrome(out) }

// ReadSpans loads a span log written by WriteSpans.
func ReadSpans(r io.Reader) ([]SpanRecord, error) { return obs.ReadSpanJSONL(r) }

// SpanFingerprint hashes the deterministic portion of the span tree
// (IDs, parents, names, details, simulated durations, non-volatile
// attrs). For a fixed profile, seed, and configuration it is identical
// across runs, across worker counts, and across repeated runs of one
// healing fault schedule; wall-clock durations are excluded.
func (w *World) SpanFingerprint() string { return w.s.Spans.Fingerprint() }

// Explain renders the evidence chain for one address, address pair, or AS:
// the §5.4 decision that fired, the constraints it consulted, and the
// probe/alias measurements mentioning the subject.
func (w *World) Explain(query string) string {
	return obs.Explain(w.s.Trace.Events(), query)
}

// ReadTrace loads a provenance event log written by WriteTrace (or
// `bdrmap -trace-out`).
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return obs.ReadJSONL(r) }

// ExplainEvents is Explain over a previously exported event log.
func ExplainEvents(events []TraceEvent, query string) string {
	return obs.Explain(events, query)
}

// Link is one inferred interdomain link of the hosting network.
type Link struct {
	// NearAddr is the observed address on the hosting network's border
	// router; FarAddr the neighbor side (zero for silent neighbors).
	NearAddr, FarAddr netx.Addr
	// FarAS is the inferred neighbor AS.
	FarAS ASN
	// Heuristic names the §5.4 rule that attributed the neighbor router.
	Heuristic string
}

// String renders the link.
func (l Link) String() string {
	far := l.FarAddr.String()
	if l.FarAddr.IsZero() {
		far = "(silent)"
	}
	return fmt.Sprintf("%v -> %s  %v  [%s]", l.NearAddr, far, l.FarAS, l.Heuristic)
}

// Report is the outcome of mapping borders from one vantage point.
type Report struct {
	VPName string
	Links  []Link
	// Neighbors lists each inferred neighbor AS with its link count.
	Neighbors map[ASN]int
	// Validation compares against ground truth (§5.6): the fraction of
	// inferred links whose existence and AS are correct.
	Correct, Total int

	raw *core.Result
}

// Accuracy returns the validated fraction.
func (r *Report) Accuracy() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Total)
}

// NeighborASes returns inferred neighbors sorted by ASN.
func (r *Report) NeighborASes() []ASN {
	out := make([]ASN, 0, len(r.Neighbors))
	for a := range r.Neighbors {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Raw exposes the underlying inference result.
func (r *Report) Raw() *core.Result { return r.raw }

// Options selects the two measurement ablations the paper evaluates. The
// zero value is the paper's bdrmap.
type Options struct {
	// DisableStopSet turns off the doubletree optimization (§5.3).
	DisableStopSet bool
	// DisableAlias skips alias resolution (exposes the fig. 13 errors).
	DisableAlias bool
}

func (o Options) config() scamper.Config {
	return scamper.Config{DisableStopSet: o.DisableStopSet, DisableAlias: o.DisableAlias}
}

// MapBorders measures from vantage point vp and infers the hosting
// network's interdomain links, validating them against ground truth.
func (w *World) MapBorders(vp int) *Report {
	return w.MapBordersOpts(vp, Options{})
}

// MapBordersOpts is MapBorders with ablation options. A VP already mapped
// with the same options is not measured again.
func (w *World) MapBordersOpts(vp int, o Options) *Report {
	return w.buildReport(w.s.RunVP(vp, o.config()))
}

// MapBordersRemote measures from vantage point vp over the §5.8
// remote-control protocol: the probing agent runs behind a loopback TCP
// session, degraded by faultSpec (comma-separated key=value syntax, e.g.
// "seed=11,drop=0.12,heal=40"; see internal/faults; empty is a clean
// link), and the hardened controller retries, resumes, and — if the
// session is permanently lost — degrades to a partial map. The device's
// one timeline is probed by one worker, so for a fixed world seed and
// fault spec the report is deterministic.
func (w *World) MapBordersRemote(vp int, o Options, faultSpec string) (*Report, error) {
	res, _, err := w.s.RunVPRemote(vp, o.config(), "127.0.0.1:0", faultSpec)
	if err != nil {
		return nil, err
	}
	return w.buildReport(res), nil
}

// buildReport validates an inference result and shapes it for callers.
func (w *World) buildReport(res *core.Result) *Report {
	v := w.s.Validate(res)
	rep := &Report{
		VPName:    res.VPName,
		Neighbors: make(map[ASN]int),
		Correct:   v.Correct,
		Total:     v.Total,
		raw:       res,
	}
	for _, l := range res.Links {
		rep.Links = append(rep.Links, Link{
			NearAddr:  l.NearAddr,
			FarAddr:   l.FarAddr,
			FarAS:     l.FarAS,
			Heuristic: string(l.Heuristic),
		})
		rep.Neighbors[l.FarAS]++
	}
	sort.Slice(rep.Links, func(i, j int) bool {
		if rep.Links[i].FarAS != rep.Links[j].FarAS {
			return rep.Links[i].FarAS < rep.Links[j].FarAS
		}
		return rep.Links[i].NearAddr < rep.Links[j].NearAddr
	})
	return rep
}

// MapAll runs MapBorders from every vantage point through the fleet
// runner's one-worker schedule. Reports are indexed by VP.
func (w *World) MapAll() []*Report {
	w.s.RunAll()
	out := make([]*Report, len(w.s.Results))
	for i, res := range w.s.Results {
		out[i] = w.buildReport(res)
	}
	return out
}

// mapped returns vantage point vp's recorded result, mapping it with the
// paper's parameters only if it was never mapped.
func (w *World) mapped(vp int) *core.Result {
	if res := w.s.Results[vp]; res != nil {
		return res
	}
	return w.s.RunVP(vp, scamper.Config{})
}

// BuildMapDB measures from every vantage point (if not already done) and
// compiles the inference output into an immutable mapdb.Snapshot — the
// query-optimised form served by bdrmapd and consumed by tslpmon.
func (w *World) BuildMapDB() *mapdb.Snapshot {
	w.MapAll()
	return mapdb.Compile(w.s.Net.HostASN, w.s.Results)
}

// MergedMap measures from every vantage point and merges the per-VP
// inferences into one network-wide border map, the way the paper's
// multi-VP deployment (§6) and the congestion project (§2) operate.
func (w *World) MergedMap() *core.MergedMap {
	w.MapAll()
	return core.Merge(w.s.Results)
}

// Export writes one VP's traces and inferences as JSON Lines: the run it
// was last mapped with, or the paper's if it was never mapped.
func (w *World) Export(vp int, out io.Writer) error {
	res := w.mapped(vp)
	x := export.NewWriter(out)
	x.Meta(export.Meta{VPName: w.VPName(vp), HostASN: w.HostASN()})
	for _, tr := range w.s.Datasets[vp].Traces {
		x.Trace(tr)
	}
	x.Result(res)
	return x.Flush()
}

// ExportMerged measures every VP and writes the merged map as JSON Lines
// (the round artifact the continuous-monitoring pipeline diffs).
func (w *World) ExportMerged(out io.Writer) error {
	m := w.MergedMap()
	x := export.NewWriter(out)
	x.Meta(export.Meta{VPName: "merged", HostASN: w.HostASN()})
	x.Merged(m)
	return x.Flush()
}

// Table1 renders the paper's Table 1 for vantage point vp from the run it
// was last mapped with, or the paper's if it was never mapped.
func (w *World) Table1(vp int) string {
	return eval.BuildTable1(w.s, w.mapped(vp)).Format()
}
