package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime/metrics"
	"time"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/netx"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// profile resolves a built-in profile, overriding its VP count when
// vps > 0.
func profile(name string, vps int) (topo.Profile, error) {
	p, ok := topo.ProfileByName(name)
	if !ok {
		return p, fmt.Errorf("unknown profile %q", name)
	}
	if vps > 0 {
		p.NumVPs = vps
	}
	return p, nil
}

// allocBytes is the process's cumulative heap allocation. It reads the
// runtime/metrics counter instead of runtime.MemStats so sampling it
// beside a running pipeline does not stop the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcPauseNS is the cumulative stop-the-world GC pause time.
func gcPauseNS() float64 {
	s := []metrics.Sample{{Name: "/gc/pauses:seconds"}}
	metrics.Read(s)
	h := s[0].Value.Float64Histogram()
	var total float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if lo < 0 {
			lo = 0
		}
		if hi > 1 { // the open-ended top bucket
			hi = lo
		}
		total += float64(n) * (lo + hi) / 2
	}
	return total * 1e9
}

// builtMap is one generation produced from scratch: the scenario, its
// compiled snapshot, and what the correctness checks compare.
type builtMap struct {
	s    *eval.Scenario
	snap *mapdb.Snapshot

	packets int64
	linkFP  uint64 // the served link set
	traceFP uint64 // every VP's trace transcript, VP order
}

// buildMap is the cold path an operator runs: derive the world, measure
// it from every VP on one fleet worker, compile the result. order, when
// non-nil, permutes the VP run order — the output must not depend on it.
// With a tracer the three calls are spanned and the program's own span
// tree is grafted under the generation's root.
func buildMap(prof topo.Profile, worldSeed int64, order []int, tr *tracer, rep int) (*builtMap, error) {
	root := tr.begin(rep, 0, "gen")
	sp := tr.begin(rep, root.id, "eval.build")
	s := eval.Build(prof, worldSeed)
	sp.end()

	fleetStart := tr.now()
	if _, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{Workers: 1, Order: order}); err != nil {
		return nil, fmt.Errorf("RunFleet: %w", err)
	}
	tr.graft(rep, root.id, fleetStart, s.Spans.Records(), s.SpanRoot.ID())

	sp = tr.begin(rep, root.id, "mapdb.compile")
	snap := mapdb.Compile(s.Net.HostASN, s.Results)
	sp.end()
	root.end()

	for i, r := range s.Results {
		if r == nil {
			return nil, fmt.Errorf("VP %d produced no result", i)
		}
	}
	return &builtMap{
		s: s, snap: snap,
		packets: s.Obs.Snapshot().Counter("probe.packets_sent"),
		linkFP:  linkFingerprint(snap),
		traceFP: traceFingerprint(s.Datasets),
	}, nil
}

func (m *builtMap) sameOutput(o *builtMap) bool {
	return m.linkFP == o.linkFP && m.traceFP == o.traceFP && m.packets == o.packets
}

// accuracy validates every VP's result against ground truth (§5.6) and
// returns Σcorrect/Σtotal with the time it took.
func accuracy(s *eval.Scenario) (frac float64, correct, total int, took time.Duration) {
	t0 := time.Now()
	for _, r := range s.Results {
		v := s.Validate(r)
		correct += v.Correct
		total += v.Total
	}
	took = time.Since(t0)
	if total > 0 {
		frac = float64(correct) / float64(total)
	}
	return frac, correct, total, took
}

// linkFingerprint hashes the served link set in its canonical order.
func linkFingerprint(snap *mapdb.Snapshot) uint64 {
	h := fnv.New64a()
	var b [12]byte
	for _, l := range snap.Links() {
		binary.LittleEndian.PutUint32(b[0:], uint32(l.Near))
		binary.LittleEndian.PutUint32(b[4:], uint32(l.Far))
		binary.LittleEndian.PutUint32(b[8:], uint32(l.FarAS))
		h.Write(b[:])
		h.Write([]byte(l.Heuristic))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// traceFingerprint folds the per-VP trace fingerprints in VP order.
func traceFingerprint(dss []*scamper.Dataset) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, ds := range dss {
		if ds == nil {
			continue
		}
		binary.LittleEndian.PutUint64(b[:], ds.TraceFingerprint())
		h.Write(b[:])
	}
	return h.Sum64()
}

// ownerAddrs lists every interface address the snapshot attributes, in
// result order. The snapshot has no owner iterator, so the addresses come
// from the inference results it was compiled from.
func ownerAddrs(results []*core.Result, snap *mapdb.Snapshot) []netx.Addr {
	seen := make(map[netx.Addr]bool)
	var out []netx.Addr
	for _, r := range results {
		for _, rt := range r.Routers {
			for _, a := range rt.Addrs {
				if seen[a] {
					continue
				}
				seen[a] = true
				if _, ok := snap.Owner(a); ok {
					out = append(out, a)
				}
			}
		}
	}
	return out
}
