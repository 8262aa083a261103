// Command tslpmon is the congestion-monitoring pipeline of §2: it maps the
// hosting network's borders with bdrmap, derives (near, far) probe-target
// pairs for every monitorable interdomain link, runs time-series latency
// probing for a simulated day, and reports the congested interconnects.
//
// With -congest N, evening congestion is injected on N randomly chosen
// interdomain links before monitoring begins, so detection has something
// to find; the report is compared against that ground truth.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"bdrmap"
	"bdrmap/internal/eval"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
	"bdrmap/internal/tslp"
)

// deriveTargets resolves the monitorable probe pairs from a compiled border
// map: every interdomain link whose far side is known (not a silent hop)
// and whose both sides answer ICMP echo becomes a (near, far) target.
func deriveTargets(snap *mapdb.Snapshot, echo func(netx.Addr) bool) []tslp.Target {
	var targets []tslp.Target
	for _, l := range snap.Links() {
		if l.Far.IsZero() {
			continue
		}
		if echo(l.Near) && echo(l.Far) {
			targets = append(targets, tslp.Target{Near: l.Near, Far: l.Far, FarAS: l.FarAS})
		}
	}
	return targets
}

// runWatch replaces the poll-and-rebuild loop with the push path: it tails
// a live bdrmapd's /v1/watch stream, counts border-flap events per link
// identity as generations publish, and prints a flap leaderboard on exit.
func runWatch(base string, maxFrames int) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	type ident struct {
		near, far netx.Addr
		farAS     topo.ASN
	}
	name := func(id ident) string {
		return fmt.Sprintf("%s -> %s (AS%d)", id.near, id.far, id.farAS)
	}
	flaps := map[ident]int{}
	count := func(ls []mapdb.Link) {
		for _, l := range ls {
			flaps[ident{l.Near, l.Far, l.FarAS}]++
		}
	}
	frames, from := 0, 0
	errDone := errors.New("watch budget reached")
	for ctx.Err() == nil {
		wc := &mapdb.WatchClient{Base: base, From: from}
		err := wc.Run(ctx, func(f mapdb.WatchFrame) error {
			switch f.Type {
			case "hello":
				fmt.Printf("watching %s (host AS%d, generation %d)\n", base, f.HostAS, f.Gen)
			case "diff":
				d := f.Diff
				if d == nil {
					return nil
				}
				from = d.To
				frames++
				count(d.Added)
				count(d.Removed)
				fmt.Printf("generation %d -> %d: +%d/-%d links, %d relabeled, %d owner change(s)\n",
					d.From, d.To, len(d.Added), len(d.Removed), len(d.Relabeled), len(d.OwnerChanges))
				if maxFrames > 0 && frames >= maxFrames {
					return errDone
				}
			}
			return nil
		})
		if errors.Is(err, errDone) || ctx.Err() != nil {
			break
		}
		if errors.Is(err, mapdb.ErrGenUnknown) {
			// The leader's history moved past our resume point: rejoin the
			// live stream and keep the flap counts we already have.
			from = 0
			continue
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "watch: %v (redialing)\n", err)
		}
		select {
		case <-ctx.Done():
		case <-time.After(time.Second):
		}
	}
	type row struct {
		id ident
		n  int
	}
	rows := make([]row, 0, len(flaps))
	for id, n := range flaps {
		rows = append(rows, row{id, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return name(rows[i].id) < name(rows[j].id)
	})
	fmt.Printf("\n%d diff frame(s) observed; %d flapping link(s)\n", frames, len(rows))
	for i, r := range rows {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(rows)-10)
			break
		}
		fmt.Printf("  %s: %d flap event(s)\n", name(r.id), r.n)
	}
}

func main() {
	var (
		profile  = flag.String("profile", "small-access", "built-in profile (tiny, re, small-access, large-access, ... — an unknown name lists them all)")
		seed     = flag.Int64("seed", 1, "world seed")
		congest  = flag.Int("congest", 1, "interdomain links to congest in the evening")
		interval = flag.Duration("interval", 5*time.Minute, "probing cadence")
		duration = flag.Duration("duration", 24*time.Hour, "monitoring duration")
		rounds   = flag.Int("rounds", 0, "map borders through this many continuous-monitoring rounds of churn and monitor the final generation")
		incr     = flag.Bool("incremental", false, "with -rounds, carry stop sets, trace caches, and alias verdicts across rounds")
		watch    = flag.String("watch", "", "stream /v1/watch from a running bdrmapd at this base URL and report border churn live instead of building a world")
		watchMax = flag.Int("watch-frames", 0, "with -watch, exit after this many diff frames (0 = run until interrupted)")
	)
	flag.Parse()

	if *watch != "" {
		runWatch(*watch, *watchMax)
		return
	}

	prof, ok := bdrmap.ProfileByName(*profile)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown profile %q (have: %s)\n",
			*profile, strings.Join(bdrmap.ProfileNames(), ", "))
		os.Exit(2)
	}

	var snap *mapdb.Snapshot
	var s *eval.Scenario
	if *rounds > 0 {
		// Map through the continuous-monitoring loop: the store's final
		// generation — after -rounds rounds of churn, incrementally
		// measured if asked — is what gets monitored.
		st := mapdb.NewStore(0, nil)
		events, sc, err := mapdb.RunRoundsFull(mapdb.RoundsConfig{
			Profile: prof, Seed: *seed, Rounds: *rounds, Incremental: *incr,
		}, st)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("mapping borders of %v across %d rounds...\n", sc.Net.HostASN, *rounds)
		for _, e := range events {
			fmt.Printf("  generation %d: %s\n", e.Gen, e.Action)
		}
		snap = st.Current()
		s = sc
	} else {
		world := bdrmap.NewWorld(prof, *seed)
		fmt.Printf("mapping borders of %v...\n", world.HostASN())
		snap = world.BuildMapDB()
		s = world.Scenario()
	}
	lane := s.Engine.NewLane(s.Net.VPs[0], 0)

	targets := deriveTargets(snap, func(a netx.Addr) bool {
		return lane.Probe(a, probe.MethodICMPEcho).OK
	})
	fmt.Printf("%d links mapped, %d monitorable\n", snap.NumLinks(), len(targets))
	if len(targets) == 0 {
		fmt.Println("nothing to monitor")
		return
	}

	// Inject ground-truth congestion. Truth is tracked per physical link:
	// congesting a shared IXP LAN legitimately affects every member's
	// probes across that fabric.
	rng := rand.New(rand.NewSource(*seed))
	truth := map[*topo.Link]bool{}
	linkOf := func(far netx.Addr) *topo.Link {
		if ifc := s.Net.IfaceByAddr(far); ifc != nil {
			return ifc.Link
		}
		return nil
	}
	for i := 0; i < *congest && i < len(targets); i++ {
		l := linkOf(targets[rng.Intn(len(targets))].Far)
		if l == nil || truth[l] {
			continue
		}
		s.Engine.InjectCongestion(probe.CongestionEpisode{
			Link:  l,
			Start: 19 * time.Hour,
			End:   23 * time.Hour,
			Queue: time.Duration(20+rng.Intn(40)) * time.Millisecond,
		})
		truth[l] = true
	}
	fmt.Printf("injected evening congestion on %d link(s)\n\n", len(truth))

	series := tslp.Run(lane, targets, tslp.Config{Interval: *interval, Duration: *duration})
	detected := map[*topo.Link]bool{}
	for _, r := range tslp.DetectAll(series, 30*time.Minute, 3*time.Millisecond) {
		if r.Congested() {
			detected[linkOf(r.Target.Far)] = true
			fmt.Println(r)
		}
	}

	tp, fn, fp := 0, 0, 0
	for l := range truth {
		if detected[l] {
			tp++
		} else {
			fn++
		}
	}
	for l := range detected {
		if !truth[l] {
			fp++
		}
	}
	fmt.Printf("\ndetection vs ground truth: %d link(s) found, %d missed, %d false alarms\n", tp, fn, fp)
}
