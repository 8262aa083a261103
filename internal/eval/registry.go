package eval

import "bdrmap/internal/topo"

// ScenarioSpec registers one extension scenario: the generator profile plus
// the §5.4 assumption the topology deliberately stresses and the heuristic
// expected to carry the attribution. DESIGN.md renders this mapping; the
// eval tests assert the expectation holds.
type ScenarioSpec struct {
	Profile topo.Profile
	// Stresses names the §5.4 assumption under stress.
	Stresses string
	// Expect names the heuristic (or observable) expected to fire.
	Expect string
}

// ExtensionScenarios lists the scenarios beyond the paper's four validation
// networks, in presentation order.
func ExtensionScenarios() []ScenarioSpec {
	return []ScenarioSpec{
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
