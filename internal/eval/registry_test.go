package eval

import (
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// scenarioSpec registers one extension scenario: the generator profile plus
// the §5.4 assumption the topology deliberately stresses and the heuristic
// expected to carry the attribution. DESIGN.md renders this mapping;
// TestTable1ExtensionScenarios asserts the expectation holds.
type scenarioSpec struct {
	Profile topo.Profile
	// Stresses names the §5.4 assumption under stress.
	Stresses string
	// Expect names the heuristic (or observable) expected to fire.
	Expect string
}

// extensionScenarios lists the scenarios beyond the paper's four validation
// networks, in presentation order.
func extensionScenarios() []scenarioSpec {
	return []scenarioSpec{
		{
			Profile:  topo.RemotePeeringProfile(),
			Stresses: "distance/latency monotonicity: an IXP LAN address implies a local attachment",
			Expect:   "hidden-peer step (§5.4.5 step 5.5) still attributes remote members by their LAN address, despite WAN-scale RTTs",
		},
		{
			Profile:  topo.HypergiantProfile(),
			Stresses: "hierarchy: a peer's customer cone does not shortcut past the host (§5.4.5)",
			Expect:   "relationship heuristic (§5.4.5) despite the hypergiant's flattened fanout",
		},
		{
			Profile:  topo.RouteServerMixProfile(),
			Stresses: "a mostly-complete BGP view: every peer is visible somewhere (§5.4.5 step 5.5)",
			Expect:   "hidden-peer step for route-server members; relationship steps for bilateral ones",
		},
		{
			Profile:  topo.RegionalVPProfile(),
			Stresses: "VP coverage: hot-potato routing hides far-coast links from regional VPs (figures 15/16)",
			Expect:   "coastal links absent from the single-region view; coverage recovers with spread VPs",
		},
	}
}

// TestTable1ExtensionScenarios runs every registered extension scenario end
// to end and asserts the structural signature its registry entry promises —
// the Table-1 row that must light up, the neighbor class that must appear —
// plus the common floor that inference accuracy survives the stress.
func TestTable1ExtensionScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("profile runs in -short mode")
	}
	specs := extensionScenarios()
	if len(specs) != 4 {
		t.Fatalf("registry lists %d scenarios, want 4", len(specs))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Profile.Name, func(t *testing.T) {
			s := Build(spec.Profile, 1)
			res := s.RunVP(0, scamper.Config{})
			tbl := BuildTable1(s, res)
			t.Logf("stresses: %s\nexpect:   %s\n%s", spec.Stresses, spec.Expect, tbl.Format())

			v := s.Validate(res)
			if v.Accuracy() < 0.955 {
				t.Errorf("accuracy %.3f below the paper band under the %s stress", v.Accuracy(), spec.Profile.Name)
			}
			if tbl.CoveragePct() < 90 {
				t.Errorf("BGP coverage %.1f%% < 90%%", tbl.CoveragePct())
			}

			switch spec.Profile.Name {
			case "remote-peering":
				// Remote members stay hidden from BGP yet get attributed:
				// trace-only neighbors exist and the hidden-peer row fired
				// despite WAN-scale RTTs on the LAN.
				if tbl.TraceOnly == 0 {
					t.Error("no trace-only neighbors: remote members were not attributed")
				}
				if tbl.RowPct(core.HeurHiddenPeer, int(classTraceOnly)) == 0 {
					t.Error("hidden-peer row empty for trace-only neighbors")
				}
			case "hypergiant":
				hg := s.Net.Tags["hypergiant-a"]
				if hg == 0 {
					t.Fatal("hypergiant not tagged")
				}
				// One VP observes only the hot-potato-nearest of the
				// hypergiant's interconnects (the figure 15 effect); it
				// must be attributed, and to the peer class.
				if len(res.Neighbors[hg]) == 0 {
					t.Error("hypergiant has no inferred links")
				}
				if tbl.ObservedBdrmap[classPeer] == 0 {
					t.Error("no peer-class neighbors observed in bdrmap")
				}
			case "route-server":
				// Both session flavors on the same LANs: route-server
				// members are trace-only hidden peers, bilateral members
				// surface in BGP as ordinary peers beyond the PtP ones.
				if tbl.TraceOnly == 0 {
					t.Error("no trace-only neighbors: route-server members missing")
				}
				if tbl.RowPct(core.HeurHiddenPeer, int(classTraceOnly)) == 0 {
					t.Error("hidden-peer row empty for route-server members")
				}
				if got := tbl.ObservedBGP[classPeer]; got <= spec.Profile.NumPeers {
					t.Errorf("BGP-visible peers = %d, want > %d: bilateral sessions did not surface in the view",
						got, spec.Profile.NumPeers)
				}
			case "regional-vp":
				// Per-VP structure is covered by TestRegionalVPCoverageLoss;
				// here the single west VP still has to produce a sane map.
				if tbl.ObservedBdrmap[classCust] == 0 {
					t.Error("no customer neighbors observed")
				}
			default:
				t.Errorf("unregistered scenario %q: add its assertion", spec.Profile.Name)
			}
		})
	}
}

// TestRegionalVPCoverageLoss reproduces the figure 15/16 marginal-utility
// effect the regional-vp scenario exists for: west-coast-only VPs observe
// strictly fewer of the coastal CDN's interconnects than the same world
// measured with VPs spread across all regions.
func TestRegionalVPCoverageLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-VP runs in -short mode")
	}
	cdnLinks := func(placement topo.VPPlacement) int {
		prof := topo.RegionalVPProfile()
		prof.VPPlacement = placement
		// One VP per region under spread placement; the same six VPs
		// collapse into the western half under VPWestCoast — placement is
		// then the only variable between the two runs.
		prof.NumVPs = prof.NumRegions
		s := Build(prof, 1)
		s.RunAll()
		cdn := s.Net.Tags["coastal-cdn"]
		if cdn == 0 {
			t.Fatal("coastal CDN not tagged")
		}
		seen := map[string]bool{}
		for _, res := range s.Results {
			for _, l := range res.Neighbors[cdn] {
				seen[l.NearAddr.String()] = true
			}
		}
		return len(seen)
	}
	west := cdnLinks(topo.VPWestCoast)
	spread := cdnLinks(topo.VPSpreadEven)
	t.Logf("coastal CDN interconnects observed: west-only=%d spread=%d", west, spread)
	if west == 0 {
		t.Fatal("west-coast VPs observed no CDN interconnects at all")
	}
	if west >= spread {
		t.Errorf("west-only VPs observed %d CDN interconnects, spread VPs %d — expected regional placement to hide coastal links",
			west, spread)
	}
}
