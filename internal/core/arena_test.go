package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// worldInputs measures the first vps VPs of n and returns each one's
// inference input, without an arena.
func worldInputs(n *topo.Network, vps int) []Input {
	in, e, hosts := measure(n, 0, scamper.Config{})
	ins := []Input{in}
	for vp := 1; vp < vps; vp++ {
		d := &scamper.Driver{
			View:     in.View,
			Prober:   scamper.LocalProber{E: e, VP: n.VPs[vp]},
			HostASNs: hosts,
		}
		next := in
		next.Data = d.Run()
		ins = append(ins, next)
	}
	return ins
}

// TestArenaReuseAcrossWorlds: an arena carried from one world into the
// next — the round loop's arena after the world churned, or one that last
// held a larger graph — infers exactly what a fresh arena does. One arena
// infers, in turn, every VP of regional-vp's baseline world, of that world
// after a customer is attached, and of it after a neighbor is
// de-provisioned, then two VPs of large-access and the one of tiny.
func TestArenaReuseAcrossWorlds(t *testing.T) {
	type world struct {
		name string
		ins  []Input
	}
	var worlds []world
	n := topo.Generate(topo.RegionalVPProfile(), 1)
	worlds = append(worlds, world{"regional-vp", worldInputs(n, len(n.VPs))})

	links := n.InterdomainLinks(n.HostASN)
	if len(links) == 0 {
		t.Fatal("no host border router")
	}
	asn := topo.ASN(65001)
	for n.ASes[asn] != nil {
		asn++
	}
	if _, err := topo.AttachCustomer(n, links[0].NearRtr, asn); err != nil {
		t.Fatal(err)
	}
	n.Build()
	worlds = append(worlds, world{fmt.Sprintf("after attaching %v", asn), worldInputs(n, len(n.VPs))})

	victim := links[len(links)-1].FarAS
	if topo.Depeer(n, victim) == 0 {
		t.Fatalf("de-provisioning %v removed no link", victim)
	}
	n.Build()
	worlds = append(worlds, world{fmt.Sprintf("after de-provisioning %v", victim), worldInputs(n, len(n.VPs))})

	large := topo.LargeAccessProfile()
	large.NumVPs = 2
	worlds = append(worlds,
		world{"large-access", worldInputs(topo.Generate(large, 1), 2)},
		world{"tiny", worldInputs(topo.Generate(topo.TinyProfile(), 1), 1)})

	var ar Arena
	for _, w := range worlds {
		for vp, in := range w.ins {
			want := Infer(in)
			in.Arena = &ar
			if got := Infer(in); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, VP %d: the carried arena's result differs from a fresh arena's (%d vs %d links)",
					w.name, vp, len(got.Links), len(want.Links))
			}
		}
	}
}

// TestInferLeavesArenaEmpty: an arena between inferences holds no pointer
// into the last one's world — the node rows' address slices (the Result's
// own), the per-address rows' origin sets (the view's) and the edge rows'
// pair windows are all zero, up to each slab's capacity — so an idle
// arena carried across rounds pins nothing of the round before.
func TestInferLeavesArenaEmpty(t *testing.T) {
	in, _, _ := measure(topo.Generate(topo.TinyProfile(), 1), 0, scamper.Config{})
	var ar Arena
	in.Arena = &ar
	if len(Infer(in).Routers) == 0 {
		t.Fatal("no routers inferred")
	}
	if cap(ar.nodes) == 0 || cap(ar.addrs) == 0 || cap(ar.edges) == 0 {
		t.Fatal("the inference built no graph in the arena")
	}
	if len(ar.nodes)+len(ar.addrs)+len(ar.edges) != 0 {
		t.Errorf("arena not reset: %d nodes, %d addrs, %d edges", len(ar.nodes), len(ar.addrs), len(ar.edges))
	}
	for i, n := range ar.nodes[:cap(ar.nodes)] {
		if n.addrs != nil || n.succ != nil || n.pred != nil || n.dests != nil || n.lastFor != nil || n.firstRoutedAfter != nil {
			t.Fatalf("node row %d still references the last inference", i)
		}
	}
	for i, a := range ar.addrs[:cap(ar.addrs)] {
		if a.origins != nil {
			t.Fatalf("address row %d still holds the last view's origin set", i)
		}
	}
	for i, e := range ar.edges[:cap(ar.edges)] {
		if e.pairs != nil {
			t.Fatalf("edge row %d still holds its pairs", i)
		}
	}
}

// TestWorkspaceEpochWraps: a carried arena can run its dedup epoch through
// all 2^32 values. Across the wrap, a slot never written and a slot
// written in an earlier epoch both read as unset, and marks in the new
// epoch hold.
func TestWorkspaceEpochWraps(t *testing.T) {
	var ws workspace
	ws.epoch = math.MaxUint32 - 1
	ws.mark(3)
	ws.nextEpoch() // MaxUint32
	if ws.mark(3) {
		t.Error("slot 3, written an epoch ago, reads as seen")
	}
	ws.mark(5)     // grows the slots to 6: 4 is never written
	ws.nextEpoch() // wraps
	for _, id := range []int32{3, 4, 5, 9} {
		if ws.mark(id) {
			t.Errorf("after the wrap, slot %d reads as seen before it is marked", id)
		}
		if !ws.mark(id) {
			t.Errorf("after the wrap, slot %d reads as unseen once marked", id)
		}
	}
}
