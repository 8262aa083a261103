// Resilience analysis: the paper's §6 (figure 14) studies how many
// distinct border routers and next-hop ASes carry traffic toward each
// destination prefix — a direct measure of egress redundancy. This example
// measures a multi-VP access network, builds the figure, and reports how
// much of the address space would survive the loss of a single border
// router.
package main

import (
	"fmt"

	"bdrmap"
	"bdrmap/internal/eval"
)

func main() {
	prof := bdrmap.LargeAccess()
	// Scale the scenario down so the example runs in seconds.
	prof.NumCustomers = 50
	prof.DistantPerTransit = 12
	prof.NumVPs = 8

	world := bdrmap.NewWorld(prof, 1)
	fmt.Printf("measuring %v from %d vantage points...\n", world.HostASN(), world.NumVPs())
	s := world.Scenario()
	s.RunAll()

	f := eval.BuildFigure14(s)
	fmt.Println()
	fmt.Println(f.Format())

	single := f.BorderFrac(0, 1)
	mid := f.BorderFrac(2, 5)
	high := 1 - f.BorderFrac(0, 5)
	fmt.Printf("egress redundancy over %d prefixes:\n", f.Prefixes)
	fmt.Printf("  single point of failure (1 border router): %5.1f%%\n", 100*single)
	fmt.Printf("  moderate redundancy (2-5 border routers):  %5.1f%%\n", 100*mid)
	fmt.Printf("  high redundancy (6+ border routers):       %5.1f%%\n", 100*high)
	fmt.Printf("  same next-hop AS from every VP:            %5.1f%%\n", 100*f.NextASFrac(1, 1))
}
