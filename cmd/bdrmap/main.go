// Command bdrmap runs the full border-mapping pipeline on a synthetic
// internetwork and prints the inferred interdomain links of the hosting
// network, optionally with the paper's Table 1, a ground-truth validation
// summary, a merged multi-VP map, JSONL export, and the §5.1-style DNS
// sanity check.
//
// Usage:
//
//	bdrmap [-profile tiny|re|small-access|large-access|tier1|enterprise|
//	                 remote-peering|hypergiant|route-server|regional-vp]
//	       [-topo saved.world] [-seed N] [-vp N]
//	       [-table1] [-merged] [-o out.jsonl] [-dnscheck]
//	       [-remote] [-faults spec]
//	       [-explain query] [-trace-out log.jsonl] [-trace-in log.jsonl]
//	       [-no-alias] [-no-stopset] [-metrics] [-v]
//
// -remote runs the measurement over the §5.8 remote-control protocol (an
// in-process agent behind loopback TCP); -faults degrades that session
// with a deterministic fault spec (see internal/faults) and implies
// -remote.
//
// -explain renders the decision-provenance evidence chain for an address,
// address pair, or AS. -trace-out exports the full event log as JSON
// Lines; -trace-in answers -explain from such a log without measuring.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bdrmap"
	"bdrmap/internal/dns"
)

func main() {
	var (
		profile   = flag.String("profile", "tiny", "scenario profile (tiny, re, ... — see -profile help on error for the full catalog)")
		seed      = flag.Int64("seed", 1, "topology generation seed")
		vp        = flag.Int("vp", 0, "vantage point index")
		table1    = flag.Bool("table1", false, "print the paper's Table 1")
		noAlias   = flag.Bool("no-alias", false, "disable alias resolution")
		noStopSet = flag.Bool("no-stopset", false, "disable the doubletree stop set")
		dnsCheck  = flag.Bool("dnscheck", false, "development-mode DNS sanity check (§5.1)")
		jsonOut   = flag.String("o", "", "export traces and inferences as JSON Lines to this file")
		topoFile  = flag.String("topo", "", "measure a world saved with topogen -save instead of generating one")
		merged    = flag.Bool("merged", false, "measure from every VP and print the merged map")
		metrics   = flag.Bool("metrics", false, "print the pipeline observability snapshot")
		verbose   = flag.Bool("v", false, "print every inferred link")
		remote    = flag.Bool("remote", false, "probe over the §5.8 remote-control protocol")
		faultSpec = flag.String("faults", "", "fault-injection spec for the remote session, e.g. seed=11,drop=0.12,heal=40 (implies -remote)")
		explain   = flag.String("explain", "", "render the evidence chain for an address, address pair, or AS (e.g. 10.0.0.1 or AS20)")
		traceOut  = flag.String("trace-out", "", "write the decision-provenance event log as JSON Lines to this file")
		traceIn   = flag.String("trace-in", "", "explain from a previously exported event log instead of running the pipeline (requires -explain)")
	)
	flag.Parse()

	// Offline explain: answer from an exported log, no measurement at all.
	if *traceIn != "" {
		if *explain == "" {
			fmt.Fprintln(os.Stderr, "-trace-in requires -explain")
			os.Exit(2)
		}
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		events, err := bdrmap.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(bdrmap.ExplainEvents(events, *explain))
		return
	}

	var world *bdrmap.World
	prof, err := profileByName(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *topoFile != "" {
		f, err := os.Open(*topoFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		world, err = bdrmap.LoadWorld(f, *seed)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		prof.Name = *topoFile
	} else {
		world = bdrmap.NewWorld(prof, *seed)
	}
	if *vp < 0 || *vp >= world.NumVPs() {
		fmt.Fprintf(os.Stderr, "vp %d out of range (0..%d)\n", *vp, world.NumVPs()-1)
		os.Exit(2)
	}

	fmt.Printf("profile=%s seed=%d host=%v vps=%d\n",
		prof.Name, *seed, world.HostASN(), world.NumVPs())

	o := bdrmap.Options{DisableAlias: *noAlias, DisableStopSet: *noStopSet}
	var rep *bdrmap.Report
	if *remote || *faultSpec != "" {
		var err error
		rep, err = world.MapBordersRemote(*vp, o, *faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if lost := world.Scenario().Datasets[*vp].Stats.TargetsLost; lost > 0 {
			fmt.Printf("remote session degraded: %d target(s) abandoned\n", lost)
		}
	} else {
		rep = world.MapBordersOpts(*vp, o)
	}
	fmt.Printf("vantage point %s: %d interdomain links, %d neighbor ASes (simulated run time %v)\n",
		rep.VPName, len(rep.Links), len(rep.Neighbors),
		world.Scenario().Datasets[*vp].Stats.SimDuration.Round(time.Minute))
	fmt.Printf("validation vs ground truth: %d/%d = %.1f%%\n",
		rep.Correct, rep.Total, 100*rep.Accuracy())

	if *verbose {
		for _, l := range rep.Links {
			fmt.Println("  ", l)
		}
	}
	if *table1 {
		fmt.Println()
		fmt.Println(world.Table1(*vp))
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := world.Export(*vp, f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("exported to %s\n", *jsonOut)
	}
	if *merged {
		m := world.MergedMap()
		fmt.Printf("\nmerged map over %d VPs: %d links, %d neighbors\n",
			len(m.VPs), m.LinkCount(), len(m.Neighbors))
		if *verbose {
			for _, l := range m.Links {
				fmt.Printf("  %v [%s] seen by %d VP(s)\n", l.Key, l.Heuristic, len(l.SeenBy))
			}
		}
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut + ".merged")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := world.ExportMerged(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("merged map exported to %s.merged\n", *jsonOut)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := world.WriteTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("trace written to %s (fingerprint %s)\n", *traceOut, world.TraceFingerprint())
	}
	if *explain != "" {
		fmt.Println()
		fmt.Print(world.Explain(*explain))
	}
	if *metrics {
		fmt.Println("\npipeline metrics:")
		fmt.Print(world.Snapshot().Format())
	}
	if *dnsCheck {
		zone := dns.FromNetwork(world.Scenario().Net, *seed)
		sanity := dns.SanityCheck(rep.Raw(), zone)
		fmt.Printf("\nDNS sanity check (development mode, §5.1): agree=%d disagree=%d no-hint=%d (%.1f%% agreement)\n",
			sanity.Agree, sanity.Disagree, sanity.NoHint, 100*sanity.AgreeFrac())
		for _, sus := range sanity.Suspects {
			fmt.Printf("  investigate %v (%s): inferred %v, DNS says %v\n",
				sus.Addr, sus.Name, sus.Inferred, sus.DNSHint)
		}
	}
}

func profileByName(name string) (bdrmap.Profile, error) {
	if prof, ok := bdrmap.ProfileByName(name); ok {
		return prof, nil
	}
	return bdrmap.Profile{}, fmt.Errorf("unknown profile %q (have: %s)",
		name, strings.Join(bdrmap.ProfileNames(), ", "))
}
