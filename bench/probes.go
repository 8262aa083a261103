package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"bdrmap/internal/mapdb"
	"bdrmap/internal/obs"
)

// The probes below are the traced pass's in-process measurements of the
// serving layers: each calls one public function of mapdb directly, on
// the same generations the workload served, so a layer's cost can be set
// beside the end-to-end figure it sits under.

// storeProbes runs replayProbes on the generations a store retains.
func storeProbes(c *runCtx, r *result, st *mapdb.Store) error {
	var images [][]byte
	for _, g := range st.Generations() {
		snap, ok := st.Generation(g)
		if !ok {
			continue
		}
		var img bytes.Buffer
		if _, err := snap.WriteTo(&img); err != nil {
			return err
		}
		images = append(images, img.Bytes())
	}
	return replayProbes(c, r, images)
}

// replayProbes republishes a sequence of generations (as segment images)
// into a memory store and a durable one and times the store, segment and
// replication layers on them.
func replayProbes(c *runCtx, r *result, images [][]byte) error {
	if len(images) < 2 {
		return fmt.Errorf("replay probes need at least two generations, have %d", len(images))
	}
	tr, m := c.tr, r.metrics
	root := tr.begin(0, 0, "layers")
	defer root.end()
	dir := filepath.Join(c.tmp, "probe-store")
	defer os.RemoveAll(dir)

	mem := mapdb.NewStore(len(images), nil)
	disk, err := mapdb.OpenStore(dir, len(images), nil)
	if err != nil {
		return err
	}
	var readHeap, pubMem, pubDisk, churned, size []float64
	for i, img := range images {
		var a, b *mapdb.Snapshot
		d, _ := measured(tr, root.id, "mapdb.segment.read_heap", func() { a, err = mapdb.ReadSegment(img) })
		if err != nil {
			return err
		}
		if b, err = mapdb.ReadSegment(img); err != nil {
			return err
		}
		readHeap = append(readHeap, us(d))
		size = append(size, float64(len(img)))
		var diff *mapdb.GenDiff
		dm, _ := measured(tr, root.id, "mapdb.publish_mem", func() { diff = mem.Publish(a) })
		dd, _ := measured(tr, root.id, "mapdb.publish_disk", func() { disk.Publish(b) })
		if i == 0 {
			continue // the first publish has no predecessor to diff against
		}
		pubMem = append(pubMem, us(dm))
		pubDisk = append(pubDisk, us(dd))
		churned = append(churned, float64(len(diff.Added)+len(diff.Removed)))
	}
	m["mapdb.segment.bytes"] = median(size)
	m["mapdb.segment.read_heap_us"] = median(readHeap)
	m["mapdb.publish_mem_us"] = median(pubMem)
	m["mapdb.publish_disk_us"] = median(pubDisk)
	m["mapdb.segment.write_us"] = median(pubDisk) - median(pubMem)
	var sum float64
	for _, n := range churned {
		sum += n
	}
	m["mapdb.diff.links_per_gen"] = sum / float64(len(churned))

	segs, err := filepath.Glob(filepath.Join(dir, "gen-*"))
	if err != nil {
		return err
	}
	var openMmap []float64
	for _, p := range segs {
		d, _ := measured(tr, root.id, "mapdb.segment.open_mmap", func() { _, err = mapdb.OpenSegment(p) })
		if err != nil {
			return err
		}
		openMmap = append(openMmap, us(d))
	}
	m["mapdb.segment.open_mmap_us"] = median(openMmap)
	d, _ := measured(tr, root.id, "mapdb.store.open", func() { _, err = mapdb.OpenStore(dir, len(images), nil) })
	if err != nil {
		return err
	}
	m["mapdb.store.open_us"] = us(d)

	// Snapshot.Apply on the diffs the memory store computed.
	gens := mem.Generations()
	var apply []float64
	for _, g := range gens[:len(gens)-1] {
		snap, _ := mem.Generation(g)
		diff, err := mem.Diff(g, g+1)
		if err != nil {
			return err
		}
		d, _ := measured(tr, root.id, "mapdb.apply", func() { _, err = snap.Apply(diff) })
		if err != nil {
			return err
		}
		apply = append(apply, us(d))
	}
	m["mapdb.apply_us"] = median(apply)

	frame, err := watchFrameBytes(mem, len(gens)-1)
	if err != nil {
		return err
	}
	m["mapdb.watch.frame_bytes"] = frame
	return nil
}

// watchFrameBytes reads the backlog of /v1/watch?from=<oldest> raw and
// returns the mean size of its n diff frames.
func watchFrameBytes(st *mapdb.Store, n int) (float64, error) {
	srv, err := serve(mapdb.Handler(st, nil))
	if err != nil {
		return 0, err
	}
	defer srv.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel() // ends the stream, which lets the server shut down
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/watch?from=%d", srv.url, st.Generations()[0]), nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("watch backlog: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	var frames, total int
	for frames < n && sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"type":"diff"`)) {
			frames++
			total += len(sc.Bytes()) + 1
		}
	}
	if frames != n {
		return 0, fmt.Errorf("watch backlog: read %d of %d diff frames: %v", frames, n, sc.Err())
	}
	return float64(total) / float64(n), nil
}

// sink keeps the compiler from discarding a probed lookup.
var sink int

// lookupProbes calls the Snapshot lookups directly, at least lookupOps
// times each over the workload's own keys, on the compiled snapshot and
// (owner only) on the same snapshot opened from a mapped segment file.
func lookupProbes(c *runCtx, r *result, snap *mapdb.Snapshot, keys *keyset) error {
	tr, m, n := c.tr, r.metrics, c.p.lookupOps
	root := tr.begin(0, 0, "layers")
	defer root.end()
	perOp := func(name string, kind reqKind, s *mapdb.Snapshot) float64 {
		pool := keys.byKind[kind]
		d, _ := measured(tr, root.id, name, func() {
			for i := 0; i < n; i++ {
				sink += lookup(s, pool[i%len(pool)])
			}
		})
		return float64(d) / float64(n)
	}
	m["mapdb.lookup.owner_ns"] = perOp("mapdb.lookup.owner", ownerHit, snap)
	m["mapdb.lookup.owner_miss_ns"] = perOp("mapdb.lookup.owner_miss", ownerMiss, snap)
	m["mapdb.lookup.link_ns"] = perOp("mapdb.lookup.link", linkHit, snap)
	m["mapdb.lookup.neighbors_ns"] = perOp("mapdb.lookup.neighbors", neighbors, snap)

	// The read mix itself, minus /v1/gen, which is no lookup.
	rng := rand.New(rand.NewSource(c.seed))
	mix := make([]request, 4096)
	for i := range mix {
		for mix[i] = keys.draw(rng); mix[i].kind == genInfo; mix[i] = keys.draw(rng) {
		}
	}
	d, _ := measured(tr, root.id, "mapdb.lookup.mix", func() {
		for i := 0; i < n; i++ {
			sink += lookup(snap, mix[i%len(mix)])
		}
	})
	m["mapdb.lookup_per_s"] = float64(n) / d.Seconds()

	// The same owner lookups served from mapped segment bytes.
	dir := filepath.Join(c.tmp, "lookup-seg")
	defer os.RemoveAll(dir)
	st, err := mapdb.OpenStore(dir, 0, nil)
	if err != nil {
		return err
	}
	var img bytes.Buffer
	if _, err := snap.WriteTo(&img); err != nil {
		return err
	}
	fresh, err := mapdb.ReadSegment(img.Bytes())
	if err != nil {
		return err
	}
	st.Publish(fresh)
	segs, err := filepath.Glob(filepath.Join(dir, "gen-*"))
	if err != nil || len(segs) != 1 {
		return fmt.Errorf("expected one segment file in %s, found %d (%v)", dir, len(segs), err)
	}
	m["mapdb.segment.bytes"] = float64(img.Len())
	var mapped *mapdb.Snapshot
	d, _ = measured(tr, root.id, "mapdb.segment.open_mmap", func() { mapped, err = mapdb.OpenSegment(segs[0]) })
	if err != nil {
		return err
	}
	m["mapdb.segment.open_mmap_us"] = us(d)
	d, _ = measured(tr, root.id, "mapdb.segment.read_heap", func() { _, err = mapdb.ReadSegment(img.Bytes()) })
	if err != nil {
		return err
	}
	m["mapdb.segment.read_heap_us"] = us(d)
	m["mapdb.lookup.owner_mmap_ns"] = perOp("mapdb.lookup.owner_mmap", ownerHit, mapped)
	return nil
}

// lookup is the Snapshot call a request resolves to.
func lookup(s *mapdb.Snapshot, q request) int {
	switch q.kind {
	case ownerHit, ownerMiss:
		o, _ := s.Owner(q.addr)
		return int(o.AS)
	case linkHit:
		l, _ := s.Link(q.near, q.far)
		return int(l.FarAS)
	default:
		return len(s.Neighbors(q.as))
	}
}

// handlerProbe drives the real handler with the read mix through
// httptest.ResponseRecorder — no TCP, no client — so what remains of
// op.p50_us above its median is transport.
func handlerProbe(c *runCtx, r *result, st *mapdb.Store, keys *keyset) {
	root := c.tr.begin(0, 0, "layers")
	defer root.end()
	sp := c.tr.begin(0, root.id, "mapdb.handler")
	defer sp.end()
	h := mapdb.HandlerWithStatus(st, obs.New(), nil)
	rng := rand.New(rand.NewSource(c.seed))
	n := c.p.lookupOps / 16
	took := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		req := httptest.NewRequest(http.MethodGet, keys.draw(rng).path, nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		took = append(took, float64(time.Since(t0)))
	}
	p50 := median(took) / 1e3
	r.metrics["mapdb.handler.p50_us"] = p50
	r.metrics["mapdb.http.transport_us"] = r.metrics["op.p50_us"] - p50
}
