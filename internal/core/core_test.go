package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"bdrmap/internal/asrel"
	"bdrmap/internal/bgp"
	"bdrmap/internal/ixp"
	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
	"bdrmap/internal/rir"
	"bdrmap/internal/scamper"
	"bdrmap/internal/sibling"
	"bdrmap/internal/topo"
)

// pipeline runs the full measurement + inference stack for one VP.
func pipeline(t testing.TB, n *topo.Network, vpIdx int, cfg scamper.Config) (*Result, Input) {
	res, in, _, _ := pipelineFull(t, n, vpIdx, cfg)
	return res, in
}

// pipelineFull also exposes the engine and host set so tests can measure
// additional VPs against the same world.
func pipelineFull(t testing.TB, n *topo.Network, vpIdx int, cfg scamper.Config) (*Result, Input, *probe.Engine, map[topo.ASN]bool) {
	t.Helper()
	in, e, hosts := measure(n, vpIdx, cfg)
	return Infer(in), in, e, hosts
}

// measure runs the measurement stack for one VP and returns the inference
// input it produced, not yet inferred.
func measure(n *topo.Network, vpIdx int, cfg scamper.Config) (Input, *probe.Engine, map[topo.ASN]bool) {
	tab := bgp.NewTable(n)
	view := bgp.Collect(tab, bgp.DefaultVantages(n))
	rel := asrel.Infer(view)
	rdb := rir.FromNetwork(n)
	pl := ixp.Merge(ixp.FromNetwork(n, 1))
	sibs := sibling.FromNetwork(n, 1)
	sibs.CurateHost(n)

	e := probe.New(n, tab)
	hosts := map[topo.ASN]bool{n.HostASN: true}
	for _, s := range sibs.SiblingsOf(n.HostASN) {
		hosts[s] = true
	}
	d := &scamper.Driver{
		View:     view,
		Prober:   scamper.LocalProber{E: e, VP: n.VPs[vpIdx]},
		HostASNs: hosts,
		Cfg:      cfg,
	}
	in := Input{
		Data: d.Run(), View: view, Rel: rel, RIR: rdb, IXP: pl,
		HostASN: n.HostASN, Siblings: sibs,
	}
	return in, e, hosts
}

// TestInferLeavesDatasetUntouched: inference reads the measured dataset
// and writes nothing back — the §5.4.7 analytical merges are the router
// graph's, not alias-resolution verdicts — so a second Infer (or an Ally
// false-positive count) sees exactly what was measured.
func TestInferLeavesDatasetUntouched(t *testing.T) {
	sorted := func(pairs [][2]netx.Addr) [][2]netx.Addr {
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i][0] != pairs[j][0] {
				return pairs[i][0] < pairs[j][0]
			}
			return pairs[i][1] < pairs[j][1]
		})
		return pairs
	}
	for _, prof := range []topo.Profile{topo.REProfile(), topo.LargeAccessProfile()} {
		in, _, _ := measure(topo.Generate(prof, 1), 0, scamper.Config{})
		r := in.Data.Resolver
		pos, neg := sorted(r.Positives()), sorted(r.Negatives())
		Infer(in)
		if got := sorted(r.Positives()); !reflect.DeepEqual(got, pos) {
			t.Errorf("%s: Infer changed the resolver's positives: %d -> %d", prof.Name, len(pos), len(got))
		}
		if got := sorted(r.Negatives()); !reflect.DeepEqual(got, neg) {
			t.Errorf("%s: Infer changed the resolver's negatives: %d -> %d", prof.Name, len(neg), len(got))
		}
	}
}

// orgOf maps an ASN to its organization (ground truth).
func orgOf(n *topo.Network, a topo.ASN) string {
	if as := n.ASes[a]; as != nil {
		return as.Org
	}
	return ""
}

// validate checks every inferred link against ground truth, mirroring
// §5.6: a link is correct when the far address really sits on a router of
// the inferred organization (or, for silent links, the neighbor truly
// attaches to the identified host router).
func validate(n *topo.Network, res *Result) (correct, total int, wrong []string) {
	truthLinks := n.InterdomainLinks(n.HostASN)
	attachedAt := make(map[topo.ASN]map[topo.RouterID]bool)
	for _, lt := range truthLinks {
		if attachedAt[lt.FarAS] == nil {
			attachedAt[lt.FarAS] = make(map[topo.RouterID]bool)
		}
		attachedAt[lt.FarAS][lt.NearRtr] = true
	}
	// IXP sessions are also ground-truth attachments.
	for _, s := range n.Sessions() {
		peer, peerRtr, hostRtr := s.B, s.BRtr, s.ARtr
		if s.A != n.HostASN {
			peer, peerRtr, hostRtr = s.A, s.ARtr, s.BRtr
		}
		_ = peerRtr
		if attachedAt[peer] == nil {
			attachedAt[peer] = make(map[topo.RouterID]bool)
		}
		attachedAt[peer][hostRtr] = true
	}

	for _, l := range res.Links {
		total++
		if l.Far != nil {
			r := n.RouterByAddr(l.FarAddr)
			if r == nil {
				wrong = append(wrong, fmt.Sprintf("far addr %v unknown", l.FarAddr))
				continue
			}
			if orgOf(n, r.Owner) == orgOf(n, l.FarAS) && orgOf(n, r.Owner) != orgOf(n, n.HostASN) {
				correct++
			} else {
				wrong = append(wrong, fmt.Sprintf("far %v inferred %v truth %v heur=%s",
					l.FarAddr, l.FarAS, r.Owner, l.Heuristic))
			}
			continue
		}
		// Silent link: the neighbor must truly attach at the named router.
		nearR := n.RouterByAddr(l.Near.Addrs[0])
		if nearR != nil && attachedAt[l.FarAS][nearR.ID] {
			correct++
		} else {
			wrong = append(wrong, fmt.Sprintf("silent %v at %v not a true attachment heur=%s",
				l.FarAS, l.Near.Addrs[0], l.Heuristic))
		}
	}
	return correct, total, wrong
}

func TestInferTinyEndToEnd(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 1)
	res, _ := pipeline(t, n, 0, scamper.Config{Workers: 1})
	if len(res.Routers) == 0 {
		t.Fatal("no routers inferred")
	}
	if len(res.Links) == 0 {
		t.Fatal("no links inferred")
	}
	correct, total, wrong := validate(n, res)
	t.Logf("tiny: %d/%d correct", correct, total)
	for _, w := range wrong {
		t.Logf("  wrong: %s", w)
	}
	if total == 0 {
		t.Fatal("no links validated")
	}
	if frac := float64(correct) / float64(total); frac < 0.9 {
		t.Errorf("accuracy %.3f < 0.9", frac)
	}
}

func TestHostRoutersIdentified(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 2)
	res, _ := pipeline(t, n, 0, scamper.Config{Workers: 1})
	// Every inferred-host router's addresses must really belong to the
	// host organization.
	for _, rn := range res.Routers {
		if !rn.IsHost {
			continue
		}
		for _, a := range rn.Addrs {
			r := n.RouterByAddr(a)
			if r == nil {
				continue
			}
			if orgOf(n, r.Owner) != orgOf(n, n.HostASN) {
				t.Errorf("router with %v inferred host but owned by %v (heur %s)",
					a, r.Owner, rn.Heuristic)
			}
		}
	}
}

func TestNeighborCoverage(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 3)
	res, _ := pipeline(t, n, 0, scamper.Config{Workers: 1})
	// Most true neighbors should have at least one inferred link.
	truth := n.TrueNeighbors(n.HostASN)
	found := 0
	var missed []topo.ASN
	for _, nb := range truth {
		if nb.Rel == topo.RelSibling {
			continue
		}
		if len(res.Neighbors[nb.ASN]) > 0 {
			found++
		} else {
			missed = append(missed, nb.ASN)
		}
	}
	tot := 0
	for _, nb := range truth {
		if nb.Rel != topo.RelSibling {
			tot++
		}
	}
	t.Logf("coverage: %d/%d neighbors, missed %v", found, tot, missed)
	if float64(found)/float64(tot) < 0.85 {
		t.Errorf("coverage %.3f too low", float64(found)/float64(tot))
	}
}

func TestPositionalRIRRuleAttributesHiddenSpace(t *testing.T) {
	// The generator numbers the access link of region 0 from the host's
	// *unannounced* block (§5.4.1): addresses there must be attributed to
	// the host via the positional rule + RIR delegation match, and the
	// routers holding them must be inferred host-operated.
	n := topo.Generate(topo.TinyProfile(), 1)
	res, _ := pipeline(t, n, 0, scamper.Config{Workers: 1})
	host := n.ASes[n.HostASN]
	hiddenSeen := 0
	for _, rn := range res.Routers {
		for _, a := range rn.Addrs {
			// Hidden block: delegated to org-host but outside every
			// announced prefix.
			if host.OriginatesAddr(a) {
				continue
			}
			truly := n.RouterByAddr(a)
			if truly == nil || orgOf(n, truly.Owner) != host.Org {
				continue
			}
			covered := false
			for _, d := range n.Delegations {
				if d.OrgID == host.Org && d.Prefix.Contains(a) {
					covered = true
				}
			}
			if !covered {
				continue
			}
			hiddenSeen++
			if !rn.IsHost {
				t.Errorf("hidden host address %v inferred as %v (%s)", a, rn.Owner, rn.Heuristic)
			}
		}
	}
	if hiddenSeen == 0 {
		t.Fatal("no unannounced host addresses observed; positional rule untested")
	}
}

func TestLoadedWorldMeasuresIdentically(t *testing.T) {
	orig := topo.Generate(topo.TinyProfile(), 7)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := topo.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resA, _ := pipeline(t, orig, 0, scamper.Config{Workers: 1})
	resB, _ := pipeline(t, loaded, 0, scamper.Config{Workers: 1})
	if len(resA.Links) != len(resB.Links) {
		t.Fatalf("links: %d vs %d", len(resA.Links), len(resB.Links))
	}
	for i := range resA.Links {
		a, b := resA.Links[i], resB.Links[i]
		if a.NearAddr != b.NearAddr || a.FarAddr != b.FarAddr ||
			a.FarAS != b.FarAS || a.Heuristic != b.Heuristic {
			t.Fatalf("link %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestHeuristicSpread(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 4)
	res, _ := pipeline(t, n, 0, scamper.Config{Workers: 1})
	// Neighbor routers attributed per heuristic (the row counts of Table 1).
	counts := make(map[Heuristic]int)
	for _, r := range res.Routers {
		if !r.IsHost && r.Owner != 0 {
			counts[r.Heuristic]++
		}
	}
	t.Logf("heuristic counts: %v", counts)
	if len(counts) < 3 {
		t.Errorf("only %d heuristics fired: %v", len(counts), counts)
	}
}
