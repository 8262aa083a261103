// Command bdrmapd is the central system of §5.8: it listens for callback
// connections from thin probing agents running on resource-limited
// devices, drives the full measurement schedule over each connection, runs
// border inference centrally, and prints the result.
//
// For a self-contained demonstration, it spawns an in-process agent
// connected over loopback TCP, mirroring the BISmark deployment where the
// device only executes probe commands while the central system keeps all
// state (the paper measured 3.5MB on-device vs ~150MB centrally).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"time"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// newMux assembles bdrmapd's HTTP surface: the obs registry as JSON on /,
// Prometheus text on /metrics, the border-map query API plus the live
// /v1/status ops surface under /v1/, and optionally net/http/pprof. Every
// error answer — including the catch-all 404 — is a structured JSON
// {"error":{"code","message"}} body.
func newMux(reg *obs.Registry, store *mapdb.Store, spans *obs.SpanLog, pprofOn bool) *http.ServeMux {
	mux := http.NewServeMux()
	obsHandler := obs.Handler(reg)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			mapdb.WriteError(w, http.StatusNotFound, "not_found", "no handler for "+r.URL.Path)
			return
		}
		obsHandler.ServeHTTP(w, r)
	})
	mux.Handle("/metrics", obs.PromHandler(reg))
	mux.Handle("/v1/", mapdb.HandlerWithStatus(store, reg, spans))
	if pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Bounds on what a client may cost the daemon before its request is read.
// There is no WriteTimeout: /v1/watch streams for as long as the
// subscriber stays.
const (
	readHeaderTimeout = 2 * time.Second // a request's headers, from accept or from the previous response
	idleTimeout       = time.Minute     // a keep-alive connection between requests
	maxHeaderBytes    = 16 << 10
)

// newServer wraps h in an http.Server a slow or hostile client cannot pin:
// a connection that dribbles its headers, or sits idle, is closed.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr: addr, Handler: h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

func main() {
	var (
		addr         = flag.String("listen", "127.0.0.1:0", "listen address for agent callbacks")
		profile      = flag.String("profile", "tiny", "world the demo agent lives in")
		seed         = flag.Int64("seed", 1, "generation seed")
		metricsAddr  = flag.String("metrics-addr", "", "serve the obs registry over HTTP on this address (e.g. 127.0.0.1:9100): JSON on /, Prometheus text on /metrics")
		metricsJSON  = flag.Bool("metrics-json", false, "print the final metrics snapshot as JSON on exit")
		pprofOn      = flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/ on -metrics-addr")
		faultSpec    = flag.String("faults", "", "inject deterministic faults into the agent link, e.g. seed=11,drop=0.12,heal=40 (see internal/faults)")
		serve        = flag.Bool("serve", false, "after inference, keep serving the map on -metrics-addr until interrupted")
		rounds       = flag.Int("rounds", 0, "run the continuous-monitoring loop for this many generations instead of the single-agent demo")
		incremental  = flag.Bool("incremental", false, "with -rounds, carry stop sets, trace caches, and alias verdicts across rounds (see README: Continuous monitoring)")
		verify       = flag.Bool("verify", false, "with -incremental, cross-check every round against a from-scratch run and abort on any divergence")
		fleetWorkers = flag.Int("fleet-workers", 1, "with -rounds, measure each round's vantage points on this many coordinator workers (the served map is identical for any count)")
		spanOut      = flag.String("span-out", "", "write the run's span timeline as a Chrome trace_event file on exit (open in Perfetto / chrome://tracing)")
		dataDir      = flag.String("data-dir", "", "persist every published generation as a segment file in this directory and recover the retained history from it on boot (crash-safe; see README: Serving the map)")
		follow       = flag.String("follow", "", "run as a read-only follower of the bdrmapd at this base URL (e.g. http://127.0.0.1:9100): tail its generation stream and serve /v1/ locally on -metrics-addr")
	)
	flag.Parse()

	// A follower measures nothing: it needs a registry, the store and the
	// mux, not a world. The round loop builds a world per round, so
	// -rounds opens only the run's registry and span tree. The one-shot
	// remote run builds its world and reports into the world's.
	var (
		prof  topo.Profile
		s     *eval.Scenario
		reg   *obs.Registry
		spans *obs.SpanLog // nil on a follower: it has no run to time
		root  *obs.OpenSpan
	)
	if *follow != "" {
		if *spanOut != "" {
			fmt.Fprintln(os.Stderr, "-span-out needs a run to time: a follower (-follow) has no span log")
			os.Exit(2)
		}
		reg = obs.New()
	} else {
		var ok bool
		if prof, ok = topo.ProfileByName(*profile); !ok {
			fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profile)
			os.Exit(2)
		}
		if *rounds > 0 {
			reg, spans, root = eval.OpenRun(topo.GeneratedHostASN, *seed)
		} else {
			s = eval.Build(prof, *seed)
			reg, spans = s.Obs, s.Spans
		}
	}
	// The store exists before inference so the query API can come up
	// immediately: /v1/* answers 503 no_generation until the first publish.
	// With -data-dir it is durable: generations recovered on boot, every
	// publish fsynced to a segment file before it becomes visible.
	var store *mapdb.Store
	if *dataDir != "" {
		var err error
		store, err = mapdb.OpenStore(*dataDir, 0, reg)
		if err != nil {
			log.Fatal(err)
		}
		if cur := store.Current(); cur != nil {
			log.Printf("recovered generations %v from %s (serving %d)", store.Generations(), *dataDir, cur.Gen())
		}
	} else {
		store = mapdb.NewStore(0, reg)
	}
	var srv *http.Server
	var sampler *obs.RuntimeSampler
	if *metricsAddr != "" {
		srv = newServer(*metricsAddr, newMux(reg, store, spans, *pprofOn))
		// Self-observation: heap, GC, and goroutine gauges refresh in the
		// background so /metrics and /v1/status report live process health.
		sampler = obs.StartRuntimeSampler(reg, time.Second)
		go func() {
			log.Printf("serving on http://%s/ (Prometheus on /metrics, map queries and status under /v1/)", *metricsAddr)
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics: %v", err)
			}
		}()
	}
	// finish handles the shared tail: the optional metrics dump, the span
	// timeline export, the optional serve-until-interrupted phase, and
	// metrics-server drain.
	finish := func() {
		if *spanOut != "" {
			f, err := os.Create(*spanOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := spans.WriteChrome(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("span timeline written to %s (load in https://ui.perfetto.dev/)", *spanOut)
		}
		if *metricsJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(reg.Snapshot()); err != nil {
				log.Fatal(err)
			}
		}
		sampler.Stop()
		if srv != nil {
			if *serve && *follow == "" {
				// Stay up as a map server: the published generations keep
				// answering /v1/ queries until the operator interrupts. (A
				// follower has already served until interrupted.)
				sig := make(chan os.Signal, 1)
				signal.Notify(sig, os.Interrupt)
				if cur := store.Current(); cur != nil {
					log.Printf("map generation %d live; serving until interrupted", cur.Gen())
				}
				<-sig
			}
			// Drain in-flight scrapes before exiting instead of cutting them off.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				log.Printf("metrics shutdown: %v", err)
			}
		}
	}

	if *follow != "" {
		// Follower mode: no probing at all. Tail the leader's generation
		// stream (full segment on first contact or history gap, diffs
		// otherwise) and serve every /v1/ read locally until interrupted.
		if srv == nil {
			log.Fatal("-follow requires -metrics-addr: a follower's only job is serving /v1/ locally")
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		f := &mapdb.Follower{Leader: *follow, Store: store, Reg: reg}
		log.Printf("following %s; replicated generations served under /v1/", *follow)
		if err := f.Run(ctx); err != nil && err != context.Canceled {
			log.Printf("follower: %v", err)
		}
		if cur := store.Current(); cur != nil {
			log.Printf("follower stopped at generation %d", cur.Gen())
		}
		finish()
		return
	}

	if *rounds > 0 {
		// Continuous-monitoring mode: measure -rounds generations of a
		// churning world into the store, optionally reusing the previous
		// round's measurement memory, then serve/report like the demo.
		events, err := mapdb.RunRounds(mapdb.RoundsConfig{
			Profile: prof, Seed: *seed, Rounds: *rounds,
			FleetWorkers: *fleetWorkers, Incremental: *incremental,
			Verify: *verify, Obs: reg,
			Spans: spans, SpanParent: root.ID(),
		}, store)
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range events {
			fmt.Printf("generation %d: %s (trace fp %016x)\n", e.Gen, e.Action, e.TraceFP)
		}
		if *incremental {
			c := func(name string) int64 { return reg.Counter(name).Load() }
			fmt.Printf("trace cache: %d hit / %d miss; traces %d live + %d replayed; alias ops replayed %d\n",
				c("rounds.cache.hit"), c("rounds.cache.miss"),
				c("driver.traces_live"), c("driver.traces_cached"),
				c("rounds.alias.replayed"))
		}
		finish()
		return
	}

	// One-shot remote mode: VP 0 runs as a thin agent dialing back to the
	// controller on -listen; all measurement state stays central. A
	// permanently lost session degrades to a partial map rather than
	// aborting: whatever was measured is still inferred.
	res, dev, err := s.RunVPRemote(0, scamper.Config{}, *addr, *faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	if lost := s.Datasets[0].Stats.TargetsLost; lost > 0 {
		log.Printf("transport degraded: %d target(s) lost", lost)
	}
	store.Publish(mapdb.Compile(s.Net.HostASN, []*core.Result{res}))

	fmt.Printf("agent %s: %d commands, %dB peak buffer (device state)\n",
		dev.Agent, dev.Commands, dev.StateBytes)
	fmt.Printf("protocol traffic: %dB out, %dB in\n", dev.BytesOut, dev.BytesIn)
	fmt.Printf("inferred %d interdomain links across %d neighbors\n",
		len(res.Links), len(res.Neighbors))
	for _, asn := range res.NeighborASes() {
		fmt.Printf("  %v: %d link(s)\n", asn, len(res.Neighbors[asn]))
	}
	finish()
}
