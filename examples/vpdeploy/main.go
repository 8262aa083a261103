// VP deployment planning: §6 of the paper asks how many vantage points —
// and where — a network needs to observe all of its interdomain links.
// Under hot-potato routing each VP only sees nearby exits (the Level3
// case), while prefix-pinned announcement makes one VP sufficient (the
// Akamai case). This example reproduces the marginal-utility analysis
// (figure 15) and the geographic view (figure 16) on a reduced deployment.
package main

import (
	"fmt"

	"bdrmap"
	"bdrmap/internal/eval"
)

func main() {
	prof := bdrmap.LargeAccess()
	prof.NumCustomers = 40
	prof.DistantPerTransit = 10

	world := bdrmap.NewWorld(prof, 1)
	s := world.Scenario()
	fmt.Printf("deploying %d VPs across %v...\n\n", world.NumVPs(), world.HostASN())
	s.RunAll()

	f15 := eval.BuildFigure15(s)
	fmt.Println(f15.Format())
	for _, sr := range f15.Networks {
		need := sr.VPsToSeeAll()
		total := sr.Cumulative[len(sr.Cumulative)-1]
		switch {
		case total == 0:
		case need <= 2:
			fmt.Printf("-> %s: announcement pinning makes %d VP(s) sufficient for all %d links\n",
				sr.Name, need, total)
		default:
			fmt.Printf("-> %s: hot-potato routing requires %d VPs to observe all %d links\n",
				sr.Name, need, total)
		}
	}

	fmt.Println()
	fmt.Println(eval.BuildFigure16(s).Format())
}
