package main

import "time"

// metricDef is one named metric as BENCHMARK.json declares it. This table
// and that file must agree exactly (TestManifestMatchesTables); -check
// reads its bounds from here so the binary needs no file at run time.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is a regression (unused per layer).
	Bound float64
}

// endToEnd metrics are reported by every workload: the contract the
// driver checks wants each of them on each workload, so they are named
// for the workload's own operation ("op") rather than for one layer.
// What an op is, is per workload (see workloadDefs and README.md). The
// wall-time metrics carry the widest bound the contract allows because
// that is what the sandbox's own run-to-run spread needs; the tail could
// not hold even that and is a per-layer metric (op.tail_us).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"gen_packets", "count", "lower", 0.01},
	{"link_accuracy", "fraction", "higher", 0.002},
}

// perLayer metrics come from the traced run. A workload reports 0 for a
// layer it does not exercise — that zero is the measurement.
var perLayer = []metricDef{
	// world build
	{"topo.generate_ms", "ms", "lower", 0},
	{"topo.rebuild_ms", "ms", "lower", 0},
	{"topo.routers", "count", "lower", 0},
	{"bgp.table_ms", "ms", "lower", 0},
	{"bgp.collect_ms", "ms", "lower", 0},
	{"bgp.prefixes", "count", "lower", 0},
	{"bgp.alloc_mb", "MB", "lower", 0},
	{"asrel.infer_ms", "ms", "lower", 0},
	{"inputs.derive_ms", "ms", "lower", 0},
	{"eval.build_ms", "ms", "lower", 0},
	{"eval.build_alloc_mb", "MB", "lower", 0},
	{"eval.validate_ms", "ms", "lower", 0},
	// measurement
	{"probe.wall_ms", "ms", "lower", 0},
	{"probe.packets", "count", "lower", 0},
	{"probe.traceroutes", "count", "lower", 0},
	{"probe.ns_per_packet", "ns", "lower", 0},
	{"scamper.run_ms", "ms", "lower", 0},
	{"scamper.traces_live", "count", "lower", 0},
	{"scamper.traces_cached", "count", "higher", 0},
	{"scamper.traces_stopped", "count", "higher", 0},
	{"scamper.stopset_saved_ratio", "ratio", "higher", 0},
	{"scamper.cache_hit_ratio", "ratio", "higher", 0},
	{"scamper.alloc_mb", "MB", "lower", 0},
	{"alias.wall_ms", "ms", "lower", 0},
	{"alias.pairs", "count", "lower", 0},
	{"alias.replayed", "count", "higher", 0},
	{"alias.ns_per_pair", "ns", "lower", 0},
	// inference
	{"core.infer_ms", "ms", "lower", 0},
	{"core.routers", "count", "higher", 0},
	{"core.links", "count", "higher", 0},
	{"core.spliced_ratio", "ratio", "higher", 0},
	{"core.merge_ms", "ms", "lower", 0},
	{"core.infer_alloc_kb", "KB", "lower", 0},
	// scheduling
	{"fleet.run_ms", "ms", "lower", 0},
	{"fleet.self_ms", "ms", "lower", 0},
	{"fleet.shards", "count", "lower", 0},
	{"fleet.steals", "count", "lower", 0},
	{"fleet.retries", "count", "lower", 0},
	{"rounds.first_ms", "ms", "lower", 0},
	// serving: compile, store, segment
	{"mapdb.compile_us", "us", "lower", 0},
	{"mapdb.compile_alloc_kb", "KB", "lower", 0},
	{"mapdb.publish_mem_us", "us", "lower", 0},
	{"mapdb.publish_disk_us", "us", "lower", 0},
	{"mapdb.diff.links_per_gen", "count", "lower", 0},
	{"mapdb.segment.bytes", "B", "lower", 0},
	{"mapdb.segment.write_us", "us", "lower", 0},
	{"mapdb.segment.open_mmap_us", "us", "lower", 0},
	{"mapdb.segment.read_heap_us", "us", "lower", 0},
	{"mapdb.store.open_us", "us", "lower", 0},
	// serving: lookup and HTTP
	{"mapdb.lookup.owner_ns", "ns", "lower", 0},
	{"mapdb.lookup.owner_miss_ns", "ns", "lower", 0},
	{"mapdb.lookup.link_ns", "ns", "lower", 0},
	{"mapdb.lookup.neighbors_ns", "ns", "lower", 0},
	{"mapdb.lookup.owner_mmap_ns", "ns", "lower", 0},
	{"mapdb.lookup_per_s", "1/s", "higher", 0},
	{"mapdb.handler.p50_us", "us", "lower", 0},
	{"mapdb.http.transport_us", "us", "lower", 0},
	{"mapdb.http.resp_bytes", "B", "lower", 0},
	{"mapdb.http.errors", "count", "lower", 0},
	// serving: replication
	{"mapdb.apply_us", "us", "lower", 0},
	{"mapdb.watch.frame_bytes", "B", "lower", 0},
	{"mapdb.follower.diffs_applied", "count", "higher", 0},
	{"mapdb.follower.full_syncs", "count", "lower", 0},
	{"mapdb.follower.redials", "count", "lower", 0},
	{"mapdb.follower.sync_errors", "count", "lower", 0},
	{"mapdb.watch.lagged", "count", "lower", 0},
	{"propagate.p50_us", "us", "lower", 0},
	{"propagate.p95_us", "us", "lower", 0},
	// the workload's op as the end-to-end pass times it, with the tail
	// that pass does not bound
	{"op.p50_us", "us", "lower", 0},
	{"op.tail_us", "us", "lower", 0},
	{"op.per_s", "1/s", "higher", 0},
	// the bench itself
	{"bench.ref_kernel_us", "us", "lower", 0},
	{"gen.publish_late_p99_us", "us", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.attributed_pct", "%", "higher", 0},
	{"gc.pause_total_ms", "ms", "lower", 0},
}

// workloadDef names a workload and the one-line reason it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(*runCtx) (*result, error)
}

var workloadDefs = []workloadDef{
	{"cold-map", "one full border map from scratch on large-access (4 VPs): probing and alias resolution do the work, serving does none; op = one map", runColdMap},
	{"rounds-churn", "24 incremental rounds on r&e into a durable store: >95% of traces replay, so world rebuild, splice, compile, diff and fsync dominate; op = one round", runRoundsChurn},
	{"serve-read", "2 closed-loop HTTP clients on a static large-access map over loopback: transport, handler, JSON and lookup do the work, the pipeline none; op = one read", runServeRead},
	{"serve-churn", "serve-read's 2 closed-loop clients on a follower while the leader publishes a generation every 50 ms: diff, fsync, watch, Apply run beside reads; op = one read", runServeChurn},
}

// params sizes every workload. full is what BENCHMARK.json measures; the
// tests substitute a tiny world so `go test` stays fast.
type params struct {
	coldProfile string
	coldVPs     int // 0 keeps the profile's own count
	worldSeed   int64

	roundsProfile string
	rounds        int // rounds per rounds-churn repetition
	verifyRounds  int // rounds of the Verify:true set-up repetition

	harvest      int           // distinct generations the churn publisher cycles through
	publishEvery time.Duration // open-loop publish period
	readClients  int           // closed-loop clients of each serving workload
	windows      int           // serving windows per run
	setupReps    int           // set-up repetitions in an end-to-end run (median reported)
	lookupOps    int           // direct Snapshot calls per lookup probe
	refBurst     time.Duration // length of one reference-kernel burst
}

var fullParams = params{
	coldProfile: "large-access", coldVPs: 4, worldSeed: 1,
	roundsProfile: "r&e", rounds: 24, verifyRounds: 8,
	harvest: 10, publishEvery: 50 * time.Millisecond,
	readClients: 2, windows: 10, setupReps: 3, lookupOps: 1 << 20,
	refBurst: 100 * time.Millisecond,
}
