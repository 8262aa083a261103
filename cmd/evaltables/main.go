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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

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
	if err := run(os.Stdout, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		os.Exit(2) // the flag set has printed the error and the usage
	}
}

// run parses args and writes the requested tables to w. With no table
// selected it prints the usage and does nothing else.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("evaltables", flag.ContinueOnError)
	var (
		table1    = fs.Bool("table1", false, "regenerate Table 1")
		validate  = fs.Bool("validate", false, "regenerate the §5.6 validation")
		fig14     = fs.Bool("fig14", false, "regenerate Figure 14")
		fig15     = fs.Bool("fig15", false, "regenerate Figure 15")
		fig16     = fs.Bool("fig16", false, "regenerate Figure 16")
		stopset   = fs.Bool("stopset", false, "stop-set efficiency")
		ablations = fs.Bool("ablations", false, "ablation suite")
		sweep     = fs.Bool("sweep", false, "§5.7 multi-network sweep")
		all       = fs.Bool("all", false, "run everything")
		seed      = fs.Int64("seed", 1, "generation seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *all {
		*table1, *validate, *fig14, *fig15, *fig16, *stopset, *ablations, *sweep =
			true, true, true, true, true, true, true, true
	}
	if !(*table1 || *validate || *fig14 || *fig15 || *fig16 || *stopset || *ablations || *sweep) {
		fs.Usage()
		return nil
	}

	if *table1 {
		fmt.Fprintln(w, "== Table 1 ==")
		for _, prof := range []topo.Profile{topo.REProfile(), topo.LargeAccessProfile(), topo.Tier1Profile()} {
			s := eval.Build(prof, *seed)
			res := s.RunVP(0, scamper.Config{})
			fmt.Fprintln(w, eval.BuildTable1(s, res).Format())
		}
	}
	if *validate {
		fmt.Fprintln(w, "== §5.6 validation ==")
		for _, prof := range []topo.Profile{topo.REProfile(), topo.LargeAccessProfile(),
			topo.Tier1Profile(), topo.SmallAccessProfile()} {
			s := eval.Build(prof, *seed)
			res := s.RunVP(0, scamper.Config{})
			v := s.Validate(res)
			found, total := s.Coverage(res)
			ixpOK, ixpTotal := s.ValidateIXP(res)
			fmt.Fprintf(w, "%-14s links correct %4d/%4d = %5.1f%%   BGP coverage %3d/%3d = %5.1f%%   IXP-published %d/%d\n",
				prof.Name, v.Correct, v.Total, 100*v.Accuracy(),
				found, total, pct(found, total), ixpOK, ixpTotal)
		}
		fmt.Fprintln(w)
	}

	var multi *eval.Scenario
	needMulti := *fig14 || *fig15 || *fig16
	if needMulti {
		fmt.Fprintln(w, "(measuring from all 19 VPs of the large access network...)")
		multi = eval.Build(topo.LargeAccessProfile(), *seed)
		multi.RunAll()
	}
	if *fig14 {
		fmt.Fprintln(w, "== Figure 14 ==")
		fmt.Fprintln(w, eval.BuildFigure14(multi).Format())
	}
	if *fig15 {
		fmt.Fprintln(w, "== Figure 15 ==")
		fmt.Fprintln(w, eval.BuildFigure15(multi).Format())
	}
	if *fig16 {
		fmt.Fprintln(w, "== Figure 16 ==")
		fmt.Fprintln(w, eval.BuildFigure16(multi).Format())
	}
	if *stopset {
		fmt.Fprintln(w, "== Stop-set efficiency (§5.3) ==")
		ss := eval.MeasureStopSet(topo.REProfile(), *seed)
		fmt.Fprintf(w, "packets with stop set %d, without %d: saved %.1f%% (%d traces stopped)\n",
			ss.PacketsWith, ss.PacketsWithout, 100*ss.SavedFrac(), ss.TracesStopped)
		fmt.Fprintf(w, "packets by operation: traces %d near + %d far, alias probes %d sweep + %d mercator + %d pick + %d ally\n\n",
			ss.TraceNear, ss.TraceFar, ss.Sweep, ss.Mercator, ss.Pick, ss.Ally)
	}
	if *ablations {
		fmt.Fprintln(w, "== Ablations ==")
		// No-alias runs on the large access network, where parallel links
		// and unresponsive counters make the fig. 13 inflation visible;
		// third-party detection matters most in the Tier-1 network.
		for _, a := range []eval.Ablation{
			eval.AblationNoAlias(topo.LargeAccessProfile(), *seed),
			eval.AblationNoThirdParty(topo.Tier1Profile(), *seed),
			eval.AblationSingleAddr(topo.REProfile(), *seed),
		} {
			fmt.Fprintf(w, "%-26s accuracy %.3f -> %.3f   links %d -> %d\n",
				a.Name, a.BaseAcc, a.VariantAcc, a.BaseLinks, a.VariantLinks)
		}
		ar := eval.MeasureAllyRounds(topo.REProfile(), *seed)
		fmt.Fprintf(w, "ally-rounds: 5 rounds %d positives (%d false), 1 round %d positives (%d false)\n",
			ar.RoundsFive.Positives, ar.RoundsFive.FalsePositives,
			ar.RoundsOne.Positives, ar.RoundsOne.FalsePositives)
	}
	if *sweep {
		fmt.Fprintln(w, "\n== §5.7 multi-network sweep ==")
		sw := eval.Sweep(
			[]topo.Profile{topo.REProfile(), topo.SmallAccessProfile(), topo.EnterpriseProfile(), topo.TinyProfile()},
			[]int64{*seed, *seed + 1, *seed + 2, *seed + 3, *seed + 4, *seed + 5},
		)
		fmt.Fprintln(w, sw.Format())
	}
	return nil
}
