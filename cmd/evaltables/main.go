// Command evaltables regenerates every table and figure of the paper's
// evaluation on the synthetic substrate:
//
//	-table1     Table 1 for the R&E, large access, and Tier-1 networks
//	-validate   the §5.6 ground-truth validation for all four networks
//	-fig14      Figure 14 (egress diversity across 19 VPs)
//	-fig15      Figure 15 (marginal utility of VPs)
//	-fig16      Figure 16 (geographic spread of observed links)
//	-stopset    §5.3 stop-set efficiency
//	-ablations  the DESIGN.md ablation suite
//	-all        everything above
package main

import (
	"flag"
	"fmt"

	"bdrmap/internal/eval"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// pct is a as a percentage of b; 0 of nothing.
func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func main() {
	var (
		table1    = flag.Bool("table1", false, "regenerate Table 1")
		validate  = flag.Bool("validate", false, "regenerate the §5.6 validation")
		fig14     = flag.Bool("fig14", false, "regenerate Figure 14")
		fig15     = flag.Bool("fig15", false, "regenerate Figure 15")
		fig16     = flag.Bool("fig16", false, "regenerate Figure 16")
		stopset   = flag.Bool("stopset", false, "stop-set efficiency")
		ablations = flag.Bool("ablations", false, "ablation suite")
		sweep     = flag.Bool("sweep", false, "§5.7 multi-network sweep")
		all       = flag.Bool("all", false, "run everything")
		seed      = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()
	if *all {
		*table1, *validate, *fig14, *fig15, *fig16, *stopset, *ablations, *sweep =
			true, true, true, true, true, true, true, true
	}
	if !(*table1 || *validate || *fig14 || *fig15 || *fig16 || *stopset || *ablations || *sweep) {
		flag.Usage()
		return
	}

	if *table1 {
		fmt.Println("== Table 1 ==")
		for _, prof := range []topo.Profile{topo.REProfile(), topo.LargeAccessProfile(), topo.Tier1Profile()} {
			s := eval.Build(prof, *seed)
			res := s.RunVP(0, scamper.Config{})
			fmt.Println(eval.BuildTable1(s, res).Format())
		}
	}
	if *validate {
		fmt.Println("== §5.6 validation ==")
		for _, prof := range []topo.Profile{topo.REProfile(), topo.LargeAccessProfile(),
			topo.Tier1Profile(), topo.SmallAccessProfile()} {
			s := eval.Build(prof, *seed)
			res := s.RunVP(0, scamper.Config{})
			v := s.Validate(res)
			found, total := s.Coverage(res)
			ixpOK, ixpTotal := s.ValidateIXP(res)
			fmt.Printf("%-14s links correct %4d/%4d = %5.1f%%   BGP coverage %3d/%3d = %5.1f%%   IXP-published %d/%d\n",
				prof.Name, v.Correct, v.Total, 100*v.Accuracy(),
				found, total, pct(found, total), ixpOK, ixpTotal)
		}
		fmt.Println()
	}

	var multi *eval.Scenario
	needMulti := *fig14 || *fig15 || *fig16
	if needMulti {
		fmt.Println("(measuring from all 19 VPs of the large access network...)")
		multi = eval.Build(topo.LargeAccessProfile(), *seed)
		multi.RunAll()
	}
	if *fig14 {
		fmt.Println("== Figure 14 ==")
		fmt.Println(eval.BuildFigure14(multi).Format())
	}
	if *fig15 {
		fmt.Println("== Figure 15 ==")
		fmt.Println(eval.BuildFigure15(multi).Format())
	}
	if *fig16 {
		fmt.Println("== Figure 16 ==")
		fmt.Println(eval.BuildFigure16(multi).Format())
	}
	if *stopset {
		fmt.Println("== Stop-set efficiency (§5.3) ==")
		ss := eval.MeasureStopSet(topo.REProfile(), *seed)
		fmt.Printf("packets with stop set %d, without %d: saved %.1f%% (%d traces stopped)\n\n",
			ss.PacketsWith, ss.PacketsWithout, 100*ss.SavedFrac(), ss.TracesStopped)
	}
	if *ablations {
		fmt.Println("== Ablations ==")
		// No-alias runs on the large access network, where parallel links
		// and unresponsive counters make the fig. 13 inflation visible;
		// third-party detection matters most in the Tier-1 network.
		for _, a := range []eval.Ablation{
			eval.AblationNoAlias(topo.LargeAccessProfile(), *seed),
			eval.AblationNoThirdParty(topo.Tier1Profile(), *seed),
			eval.AblationSingleAddr(topo.REProfile(), *seed),
		} {
			fmt.Printf("%-26s accuracy %.3f -> %.3f   links %d -> %d\n",
				a.Name, a.BaseAcc, a.VariantAcc, a.BaseLinks, a.VariantLinks)
		}
		ar := eval.MeasureAllyRounds(topo.REProfile(), *seed)
		fmt.Printf("ally-rounds: 5 rounds %d positives (%d false), 1 round %d positives (%d false)\n",
			ar.RoundsFive.Positives, ar.RoundsFive.FalsePositives,
			ar.RoundsOne.Positives, ar.RoundsOne.FalsePositives)
	}
	if *sweep {
		fmt.Println("\n== §5.7 multi-network sweep ==")
		sw := eval.Sweep(
			[]topo.Profile{topo.REProfile(), topo.SmallAccessProfile(), topo.EnterpriseProfile(), topo.TinyProfile()},
			[]int64{*seed, *seed + 1, *seed + 2, *seed + 3, *seed + 4, *seed + 5},
		)
		fmt.Println(sw.Format())
	}
}
