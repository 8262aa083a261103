package core

import (
	"testing"

	"bdrmap/internal/netx"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

func mkLink(near, far netx.Addr, as topo.ASN, h Heuristic) *Link {
	l := &Link{NearAddr: near, FarAddr: far, FarAS: as, Heuristic: h}
	l.Near = &RouterNode{Addrs: []netx.Addr{near}}
	if !far.IsZero() {
		l.Far = &RouterNode{Addrs: []netx.Addr{far}}
	}
	return l
}

func mkResult(vp string, links ...*Link) *Result {
	return &Result{VPName: vp, Links: links}
}

func TestMergeDedupsAcrossVPs(t *testing.T) {
	a := mkResult("vp1",
		mkLink(1, 2, 100, HeurFirewall),
		mkLink(3, 4, 200, HeurOnenet),
	)
	b := mkResult("vp2",
		mkLink(1, 2, 100, HeurIPAS), // same link, second VP, another heuristic
		mkLink(5, 6, 300, HeurIPAS),
	)
	m := Merge([]*Result{a, nil, b}) // a VP that produced nothing merges as nil
	if m.LinkCount() != 3 {
		t.Fatalf("links = %d, want 3", m.LinkCount())
	}
	if len(m.VPs) != 2 {
		t.Fatalf("VPs = %v", m.VPs)
	}
	for _, l := range m.Links {
		if l.Key.FarAS == 100 {
			if len(l.SeenBy) != 2 {
				t.Fatalf("shared link SeenBy = %v", l.SeenBy)
			}
			if l.Heuristic != HeurFirewall {
				t.Fatalf("shared link kept %q, want the first VP's %q", l.Heuristic, HeurFirewall)
			}
		} else if len(l.SeenBy) != 1 {
			t.Fatalf("unique link SeenBy = %v", l.SeenBy)
		}
	}
	if m.Neighbors[100] != 1 || m.Neighbors[200] != 1 || m.Neighbors[300] != 1 {
		t.Fatalf("neighbors = %v", m.Neighbors)
	}
}

func TestMergeSilentLinks(t *testing.T) {
	a := mkResult("vp1", mkLink(1, 0, 100, HeurSilent))
	b := mkResult("vp2", mkLink(1, 0, 100, HeurSilent))
	m := Merge([]*Result{a, b})
	if m.LinkCount() != 1 {
		t.Fatalf("silent links not deduped: %d", m.LinkCount())
	}
	if m.Links[0].Key.String() == "" {
		t.Fatal("empty key rendering")
	}
}

func TestMergeRealPipelineMultiVP(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-VP pipeline in -short mode")
	}
	prof := topo.LargeAccessProfile()
	prof.NumCustomers = 30
	prof.DistantPerTransit = 8
	prof.NumVPs = 4
	n := topo.Generate(prof, 1)
	var results []*Result
	// One shared engine so VPs measure the same world.
	res0, in, engine, hosts := pipelineFull(t, n, 0, scamper.Config{})
	results = append(results, res0)
	for vp := 1; vp < 4; vp++ {
		d := &scamper.Driver{
			View:     in.View,
			Prober:   scamper.LocalProber{E: engine, VP: n.VPs[vp]},
			HostASNs: hosts,
			Cfg:      scamper.Config{},
		}
		ds := d.Run()
		in2 := in
		in2.Data = ds
		results = append(results, Infer(in2))
	}
	m := Merge(results)
	// The union must be at least as large as any single VP's view.
	for _, r := range results {
		if m.LinkCount() < len(r.Links)/2 {
			t.Fatalf("merged map (%d) suspiciously small vs VP (%d)", m.LinkCount(), len(r.Links))
		}
	}
	// Multihomed big peers: more links in the merged map than in VP 0's.
	if m.LinkCount() <= len(results[0].Links) {
		t.Errorf("merging %d VPs added no links: %d vs %d",
			len(results), m.LinkCount(), len(results[0].Links))
	}
}
