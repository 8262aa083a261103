// Continuous border mapping: the CAIDA deployment (§2, §5.8) re-runs
// bdrmap on a schedule and diffs successive maps to track interconnection
// churn — new customers turned up, interconnects de-provisioned. This
// example measures a network, changes the world (one new customer, one
// depeered neighbor), measures again with a fresh engine, publishes both
// maps into a mapdb.Store and reports the GenDiff the second publish
// returns — the diff bdrmapd serves on /v1/watch.
package main

import (
	"fmt"

	"bdrmap/internal/eval"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/topo"
)

// measure runs one full measurement round against the network's current
// state: inputs re-derived from scratch, every VP on a fresh engine.
func measure(n *topo.Network) *mapdb.Snapshot {
	s := eval.BuildFromNetwork(n, 1)
	s.RunAll()
	return mapdb.Compile(n.HostASN, s.Results)
}

func main() {
	n := topo.Generate(topo.TinyProfile(), 1)
	store := mapdb.NewStore(0, nil)
	fmt.Printf("round 1: measuring %v...\n", n.HostASN)
	round1 := measure(n)
	store.Publish(round1)
	fmt.Printf("round 1: %d links, %d neighbors\n\n", len(round1.Links()), len(round1.NeighborASes()))

	// The world changes between rounds.
	var border topo.RouterID
	var victim topo.ASN
	for _, lt := range n.InterdomainLinks(n.HostASN) {
		border, victim = lt.NearRtr, lt.FarAS
		break
	}
	newASN, err := topo.AttachCustomer(n, border, 65000)
	if err != nil {
		panic(err)
	}
	var transit topo.ASN
	for _, asn := range n.ASNs() {
		if n.ASes[asn].Tier == topo.TierTier1 && len(n.ASes[asn].Routers) > 0 {
			transit = asn
			break
		}
	}
	newPeer, err := topo.AttachPeer(n, border, 65001, transit)
	if err != nil {
		panic(err)
	}
	removed := topo.Depeer(n, victim)
	n.Build()
	fmt.Printf("world changed: customer %v and peer %v provisioned, %d link(s) to %v de-provisioned\n\n",
		newASN, newPeer, removed, victim)

	fmt.Println("round 2: measuring again...")
	round2 := measure(n)
	d := store.Publish(round2)
	fmt.Printf("round 2: %d links, %d neighbors\n\n", len(round2.Links()), len(round2.NeighborASes()))

	fmt.Printf("diff, generation %d → %d:\n", d.From, d.To)
	for _, l := range d.Added {
		fmt.Printf("  + %v->%v %v [%s]\n", l.Near, l.Far, l.FarAS, l.Heuristic)
	}
	for _, l := range d.Removed {
		fmt.Printf("  - %v->%v %v [%s]\n", l.Near, l.Far, l.FarAS, l.Heuristic)
	}
	fmt.Printf("neighbors gained: %v, lost: %v\n", d.NeighborsAdded, d.NeighborsRemoved)
}
