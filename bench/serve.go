package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"bdrmap/internal/core"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// server is one loopback HTTP listener and the goroutine serving it.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // always ErrServerClosed: close below is the only way out
	}()
	return s, nil
}

// close stops the server and returns once its accept loop and every
// handler have ended. Clients are stopped first, so the graceful path is
// the normal one; Close is the backstop for a handler that will not end.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
	}
	<-s.done
}

// reqKind is one line of the read mix.
type reqKind int

const (
	ownerHit reqKind = iota
	ownerMiss
	linkHit
	neighbors
	genInfo
	numKinds
)

// mixPct is the read mix in percent, the same for every serving
// workload. /v1/status is left out: it is an operator endpoint, not a
// consumer read.
var mixPct = [numKinds]int{ownerHit: 55, ownerMiss: 10, linkHit: 20, neighbors: 10, genInfo: 5}

// request is one drawn read.
type request struct {
	kind      reqKind
	path      string
	addr      netx.Addr // owner lookups
	near, far netx.Addr // link lookups
	as        topo.ASN  // neighbor lookups
}

// keyset is what reads are drawn from: uniformly over the served map's
// own owners, links and neighbor ASes. The program has no cache whose
// size a skew could be set against, so no skew is modelled.
type keyset struct {
	byKind [numKinds][]request
}

// newKeyset builds the request pool from a snapshot and the results it
// was compiled from. Misses are addresses of 240.0.0.0/4 checked absent
// from every snapshot in all.
func newKeyset(results []*core.Result, snap *mapdb.Snapshot, all []*mapdb.Snapshot) (*keyset, error) {
	ks := &keyset{}
	for _, a := range ownerAddrs(results, snap) {
		ks.byKind[ownerHit] = append(ks.byKind[ownerHit], request{kind: ownerHit, path: "/v1/owner?ip=" + a.String(), addr: a})
	}
	for i := 0; len(ks.byKind[ownerMiss]) < 1024 && i < 1<<16; i++ {
		a := netx.Addr(0xf0000000 + uint32(i)*4099)
		absent := true
		for _, s := range all {
			if _, ok := s.Owner(a); ok {
				absent = false
			}
		}
		if absent {
			ks.byKind[ownerMiss] = append(ks.byKind[ownerMiss], request{kind: ownerMiss, path: "/v1/owner?ip=" + a.String(), addr: a})
		}
	}
	for _, l := range snap.Links() {
		p := "/v1/link?near=" + l.Near.String()
		if !l.Far.IsZero() {
			p += "&far=" + l.Far.String()
		}
		ks.byKind[linkHit] = append(ks.byKind[linkHit], request{kind: linkHit, path: p, near: l.Near, far: l.Far})
	}
	for _, as := range snap.NeighborASes() {
		ks.byKind[neighbors] = append(ks.byKind[neighbors], request{kind: neighbors, path: fmt.Sprintf("/v1/neighbors?as=%d", uint32(as)), as: as})
	}
	ks.byKind[genInfo] = []request{{kind: genInfo, path: "/v1/gen"}}
	for k, reqs := range ks.byKind {
		if len(reqs) == 0 {
			return nil, fmt.Errorf("served map has no keys for read kind %d", k)
		}
	}
	return ks, nil
}

// draw picks a kind by the mix, then a key uniformly.
func (ks *keyset) draw(rng *rand.Rand) request {
	n := rng.Intn(100)
	for k, pct := range mixPct {
		if n < pct {
			pool := ks.byKind[k]
			return pool[rng.Intn(len(pool))]
		}
		n -= pct
	}
	panic("mixPct does not sum to 100")
}

// verifier checks a reply against the answer computed from the snapshot
// of the generation the reply names.
type verifier struct {
	snaps []*mapdb.Snapshot
	// indexOf maps a served generation number to its snapshot in snaps.
	indexOf func(gen int) int
}

// reply is the union of the fields the checks read from the five
// endpoints' JSON bodies.
type reply struct {
	Gen   int             `json:"gen"`
	AS    uint32          `json:"as"`
	Count int             `json:"count"`
	Links json.RawMessage `json:"links"`
	Link  struct {
		FarAS uint32 `json:"far_as"`
	} `json:"link"`
}

// ok reports whether (status, body) is the right answer to q.
func (v *verifier) ok(q request, status int, body []byte) bool {
	if status == http.StatusNotFound {
		// A 404 body names no generation field to pin the answer to; it is
		// right when some served generation really lacks the key.
		for _, s := range v.snaps {
			if !v.has(s, q) {
				return true
			}
		}
		return false
	}
	if status != http.StatusOK {
		return false
	}
	var rp reply
	if err := json.Unmarshal(body, &rp); err != nil {
		return false
	}
	i := v.indexOf(rp.Gen)
	if i < 0 || i >= len(v.snaps) {
		return false
	}
	s := v.snaps[i]
	switch q.kind {
	case ownerHit, ownerMiss:
		o, found := s.Owner(q.addr)
		return found && uint32(o.AS) == rp.AS
	case linkHit:
		l, found := s.Link(q.near, q.far)
		return found && uint32(l.FarAS) == rp.Link.FarAS
	case neighbors:
		n := len(s.Neighbors(q.as))
		return n > 0 && n == rp.Count
	default:
		var links int
		return json.Unmarshal(rp.Links, &links) == nil && links == s.NumLinks()
	}
}

func (v *verifier) has(s *mapdb.Snapshot, q request) bool {
	switch q.kind {
	case ownerHit, ownerMiss:
		_, ok := s.Owner(q.addr)
		return ok
	case linkHit:
		_, ok := s.Link(q.near, q.far)
		return ok
	case neighbors:
		return len(s.Neighbors(q.as)) > 0
	}
	return true
}

// reader is one closed-loop client: it sends its next read only after
// the previous reply is fully received and checked.
type reader struct {
	base   string
	client *http.Client
	keys   *keyset
	v      *verifier
	rng    *rand.Rand
	epoch  time.Time // when the timed part began

	ops               []timed
	attempted, failed int64
	respBytes         int64
	failures          []string // the first few failed reads, for the report
}

// fail counts a failed read and keeps the first three for the report.
func (rd *reader) fail(q request, format string, args ...any) {
	rd.failed++
	if len(rd.failures) < 3 {
		rd.failures = append(rd.failures, q.path+": "+fmt.Sprintf(format, args...))
	}
}

func newReader(base string, keys *keyset, v *verifier, seed int64) *reader {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return &reader{
		base: base, keys: keys, v: v, rng: rand.New(rand.NewSource(seed)), epoch: time.Now(),
		client: &http.Client{Transport: tr, Timeout: 5 * time.Second},
		ops:    make([]timed, 0, 1<<18),
	}
}

// run reads for dur as window win of the timed part. A transport error,
// a wrong status or a wrong answer is a failed operation.
func (rd *reader) run(win int, dur time.Duration) {
	var body bytes.Buffer
	for start := time.Now(); ; {
		t0 := time.Now()
		if t0.Sub(start) >= dur {
			return
		}
		q := rd.keys.draw(rd.rng)
		rd.attempted++
		resp, err := rd.client.Get(rd.base + q.path)
		if err != nil {
			rd.fail(q, "%v", err)
			continue
		}
		body.Reset()
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		took := time.Since(t0)
		if err != nil {
			rd.fail(q, "reading the reply: %v", err)
			continue
		}
		if !rd.v.ok(q, resp.StatusCode, body.Bytes()) {
			rd.fail(q, "wrong answer: %d %s", resp.StatusCode, bytes.TrimSpace(body.Bytes()))
			continue
		}
		rd.ops = append(rd.ops, timed{win, int64(t0.Sub(rd.epoch)), int64(took)})
		rd.respBytes += int64(body.Len())
	}
}

// newReaders makes the workload's closed-loop clients.
func newReaders(c *runCtx, base string, keys *keyset, v *verifier) []*reader {
	readers := make([]*reader, c.p.readClients)
	for i := range readers {
		readers[i] = newReader(base, keys, v, c.seed*1000+int64(i))
	}
	return readers
}

// timedWindows runs a serving workload's timed part: window after window,
// a reference burst before each and after the last. It returns the heap
// allocated inside the windows.
func timedWindows(c *runCtx, window func(win int) error) (alloc uint64, err error) {
	for w := 0; w < c.p.windows; w++ {
		c.ref.burst()
		a0 := allocBytes()
		if err := window(w); err != nil {
			return 0, err
		}
		alloc += allocBytes() - a0
	}
	c.ref.burst()
	return alloc, nil
}

// readWindow runs the readers concurrently for dur as window win.
func readWindow(readers []*reader, win int, dur time.Duration) {
	var wg sync.WaitGroup
	for _, rd := range readers {
		wg.Add(1)
		go func(rd *reader) {
			defer wg.Done()
			rd.run(win, dur)
		}(rd)
	}
	wg.Wait()
}

// pool closes the readers' connections, adds what they saw to r and
// returns their reads.
func pool(r *result, readers []*reader) (ops []timed) {
	var respBytes int64
	for _, rd := range readers {
		rd.client.CloseIdleConnections()
		ops = append(ops, rd.ops...)
		r.attempted += rd.attempted
		r.failed += rd.failed
		respBytes += rd.respBytes
		for _, f := range rd.failures {
			r.infof("failed read %s", f)
		}
	}
	if len(ops) > 0 {
		r.metrics["mapdb.http.resp_bytes"] = float64(respBytes) / float64(len(ops))
	}
	return ops
}

// readStats reports reads as windowed medians: each window's median,
// p99 and rate, then the median over windows.
func readStats(c *runCtx, r *result, ops []timed) {
	wins, winSec := windows(ops, c.p.windows), c.window().Seconds()
	p50, p50IQR := overWindows(wins, func(s []float64) float64 { return percentile(s, 0.5) })
	p99, p99IQR := overWindows(wins, func(s []float64) float64 { return percentile(s, 0.99) })
	rate, rateIQR := overWindows(wins, func(s []float64) float64 { return float64(len(s)) / winSec })
	setOpStats(c, r, p50/1e3, p99/1e3, rate)
	r.infof("reads as measured: n=%d over %d windows of %.1f s; p50 %.1f us (IQR over windows %.1f), p99 %.1f us (IQR %.1f), %.0f req/s (IQR %.0f)",
		len(ops), len(wins), winSec, p50/1e3, p50IQR/1e3, p99/1e3, p99IQR/1e3, rate, rateIQR)
}

// traceReads turns every read into a span. The timestamps are the ones
// the latency measurement takes anyway, so on the serving workloads the
// traced pass adds nothing to the timed part: their trace.overhead_pct is
// zero by construction, and what the traced pass adds is the probes.
func traceReads(c *runCtx, ops []timed, base int64) {
	for _, o := range ops {
		c.tr.add(0, 0, "http.read", base+o.at, base+o.at+o.dur)
	}
}

// staticServe is serve-read's set-up product: one measured world,
// compiled, published to a memory store behind the real handler.
type staticServe struct {
	world *builtMap
	store *mapdb.Store
	reg   *obs.Registry
	srv   *server
}

func setupStatic(c *runCtx) (*staticServe, error) {
	prof, err := profile(c.p.coldProfile, c.p.coldVPs)
	if err != nil {
		return nil, err
	}
	w, err := buildMap(prof, c.p.worldSeed, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	st := mapdb.NewStore(0, reg)
	st.Publish(w.snap)
	srv, err := serve(mapdb.HandlerWithStatus(st, reg, w.s.Spans))
	if err != nil {
		return nil, err
	}
	return &staticServe{w, st, reg, srv}, nil
}

func runServeRead(c *runCtx) (*result, error) {
	r := newResult()
	var ss *staticServe
	err := c.timeSetups(r, func(int) (err error) {
		if ss != nil {
			ss.srv.close()
		}
		ss, err = setupStatic(c)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer ss.srv.close()
	acc, correct, total, _ := accuracy(ss.world.s)
	r.metrics["link_accuracy"] = acc
	r.metrics["gen_packets"] = float64(ss.world.packets)

	snap := ss.world.snap
	keys, err := newKeyset(ss.world.s.Results, snap, []*mapdb.Snapshot{snap})
	if err != nil {
		return nil, err
	}
	v := &verifier{snaps: []*mapdb.Snapshot{snap}, indexOf: func(gen int) int { return gen - snap.Gen() }}
	r.infof("served map: %d links, %d owners, %d neighbor ASes, %d/%d links correct; %d closed-loop clients, mix owner-hit/miss/link/neighbors/gen = %v%%",
		snap.NumLinks(), snap.NumOwners(), snap.NumNeighbors(), correct, total, c.p.readClients, mixPct)

	gc0, base := gcPauseNS(), c.tr.now()
	readers := newReaders(c, ss.srv.url, keys, v)
	alloc, _ := timedWindows(c, func(w int) error {
		readWindow(readers, w, c.window())
		return nil
	})
	ops := pool(r, readers)
	r.metrics["gc.pause_total_ms"] = (gcPauseNS() - gc0) / 1e6
	if len(ops) == 0 {
		return nil, fmt.Errorf("no read succeeded")
	}
	readStats(c, r, ops)
	r.metrics["alloc_kb_per_op"] = float64(alloc) / 1024 / float64(len(ops))

	if c.traced() {
		traceReads(c, ops, base)
		r.metrics["mapdb.http.errors"] = float64(ss.reg.Snapshot().Counter("mapdb.http.errors"))
		if err := lookupProbes(c, r, snap, keys); err != nil {
			return nil, err
		}
		handlerProbe(c, r, ss.store, keys)
	}
	return r, nil
}

// churn is serve-churn's set-up: a durable leader behind the real
// handler, K distinct generations to cycle through, and a real Follower
// tailing /v1/watch into its own store and handler.
type churn struct {
	images [][]byte          // the K generations as segment images
	snaps  []*mapdb.Snapshot // the same, decoded, for checking replies
	keys   *keyset
	offset int // where in the cycle this seed starts

	leader     *mapdb.Store
	lreg, freg *obs.Registry
	fstore     *mapdb.Store
	lsrv, fsrv *server
	stopFollow func()

	packetsPerGen float64
	accuracy      float64
}

// cycle maps publish i to an image: up the harvested generations and back
// down, so consecutive publishes always differ by one round's churn.
func (ch *churn) cycle(i int) int {
	k := len(ch.images)
	if k == 1 {
		return 0
	}
	j := (i + ch.offset) % (2*k - 2)
	if j >= k {
		j = 2*k - 2 - j
	}
	return j
}

func setupChurn(c *runCtx, dir string) (*churn, error) {
	prof, err := profile(c.p.roundsProfile, 0)
	if err != nil {
		return nil, err
	}
	k := c.p.harvest
	ch := &churn{lreg: obs.New(), freg: obs.New(), offset: int(uint64(c.seed) % uint64(2*k-2))}

	// Harvest K distinct generations from one incremental RunRounds.
	hreg, hstore := obs.New(), mapdb.NewStore(k, nil)
	_, last, err := mapdb.RunRoundsFull(mapdb.RoundsConfig{
		Profile: prof, Seed: c.p.worldSeed, Rounds: k, Incremental: true, Obs: hreg,
	}, hstore)
	if err != nil {
		return nil, fmt.Errorf("harvest: %w", err)
	}
	for _, g := range hstore.Generations() {
		snap, _ := hstore.Generation(g)
		var img bytes.Buffer
		if _, err := snap.WriteTo(&img); err != nil {
			return nil, err
		}
		ch.images = append(ch.images, img.Bytes())
		ch.snaps = append(ch.snaps, snap)
	}
	if len(ch.images) != k {
		return nil, fmt.Errorf("harvest kept %d of %d generations", len(ch.images), k)
	}
	ch.packetsPerGen = float64(hreg.Snapshot().Counter("probe.packets_sent")) / float64(k)
	ch.accuracy, _, _, _ = accuracy(last)
	if ch.keys, err = newKeyset(last.Results, ch.snaps[k-1], ch.snaps); err != nil {
		return nil, err
	}

	if ch.leader, err = mapdb.OpenStore(dir, 0, ch.lreg); err != nil {
		return nil, err
	}
	first, err := mapdb.ReadSegment(ch.images[ch.cycle(0)])
	if err != nil {
		return nil, err
	}
	ch.leader.Publish(first)
	// Replies are checked against generation g = publish g-1 of the cycle.
	if g := ch.leader.Current().Gen(); g != 1 {
		return nil, fmt.Errorf("leader store in %s was not empty: first publish is generation %d", dir, g)
	}
	if ch.lsrv, err = serve(mapdb.HandlerWithStatus(ch.leader, ch.lreg, nil)); err != nil {
		return nil, err
	}

	ch.fstore = mapdb.NewStore(0, ch.freg)
	synced, cancelWatch, _ := ch.fstore.Watch(1)
	defer cancelWatch()
	ctx, cancel := context.WithCancel(context.Background())
	followed := make(chan struct{})
	go func() {
		defer close(followed)
		f := &mapdb.Follower{Leader: ch.lsrv.url, Store: ch.fstore, Reg: ch.freg,
			RedialMin: 10 * time.Millisecond, RedialMax: 100 * time.Millisecond}
		_ = f.Run(ctx) // returns ctx.Err() once stopped
	}()
	ch.stopFollow = func() { cancel(); <-followed }
	select {
	case <-synced: // the first full sync landed
	case <-time.After(10 * time.Second):
		ch.stopFollow()
		ch.lsrv.close()
		return nil, fmt.Errorf("follower never synced from %s", ch.lsrv.url)
	}
	if ch.fsrv, err = serve(mapdb.HandlerWithStatus(ch.fstore, ch.freg, nil)); err != nil {
		ch.stopFollow()
		ch.lsrv.close()
		return nil, err
	}
	return ch, nil
}

// close stops the follower, then both servers, and waits for each.
func (ch *churn) close() {
	ch.stopFollow()
	ch.fsrv.close()
	ch.lsrv.close()
}

// verifier for replies served while the cycle runs: leader generation g
// is publish g-1.
func (ch *churn) verifier() *verifier {
	return &verifier{snaps: ch.snaps, indexOf: func(gen int) int {
		if gen < 1 {
			return -1
		}
		return ch.cycle(gen - 1)
	}}
}

// sleepUntil returns at t as nearly as the scheduler allows: it sleeps to
// within a millisecond, then yields in a loop, because time.Sleep alone
// overshoots by most of a millisecond — a fifth of a propagation.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// churnRun is what the timed part of a churn workload saw.
type churnRun struct {
	props  []timed   // per generation: due → visible on the follower
	pubs   []timed   // per generation: the leader's Publish call
	lateNS []float64 // how late each publish started
	reads  []timed
	baseNS int64 // tracer time the run started at
}

// churnWindow is one window of the timed part: the leader publishes a
// fresh snapshot of the next generation in the cycle every publishEvery
// on an open loop — on schedule whether or not the last one has
// propagated — while rd reads from the follower in a closed loop.
// Propagation is timed from the instant a publish was due to the
// follower's store announcing that generation; the window ends when
// every generation it published has arrived.
func churnWindow(c *runCtx, ch *churn, run *churnRun, readers []*reader, win int) error {
	every := c.p.publishEvery
	n := int(c.window()/every) - 1 // publishes due inside the window
	g0 := ch.leader.Current().Gen()
	visible, cancelWatch, _ := ch.fstore.Watch(n + 1)
	defer cancelWatch()

	start, epoch := time.Now(), readers[0].epoch
	// Publish i is generation g0+i, due at start + i·every: derived, not
	// shared, so publisher and collector share no state.
	due := func(gen int) time.Time { return start.Add(time.Duration(gen-g0) * every) }

	collected, stopCollect := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(collected)
		for got := 0; got < n; got++ {
			select {
			case d, ok := <-visible:
				if !ok {
					return
				}
				at := due(d.To)
				run.props = append(run.props, timed{win, int64(at.Sub(epoch)), int64(time.Since(at))})
			case <-stopCollect:
				return
			}
		}
	}()
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		readWindow(readers, win, c.window())
	}()

	var pubErr error
	for i := 1; i <= n; i++ {
		// Decode before the publish is due: a fresh object each time,
		// because Publish stamps the snapshot it is given.
		snap, err := mapdb.ReadSegment(ch.images[ch.cycle(g0+i-1)])
		if err != nil {
			pubErr = err
			break
		}
		at := due(g0 + i)
		sleepUntil(at)
		t0 := time.Now()
		run.lateNS = append(run.lateNS, float64(t0.Sub(at)))
		ch.leader.Publish(snap)
		run.pubs = append(run.pubs, timed{win, int64(t0.Sub(epoch)), int64(time.Since(t0))})
	}
	<-readDone
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		close(stopCollect)
		<-collected
	}
	return pubErr
}

// checkReplica holds the follower to the leader once the cycle stops:
// the same generation giving the same answers, one full sync, no sync
// error, no watcher dropped. Answers, not segment bytes: Snapshot.Apply
// orders the owner table by address where Compile keeps discovery order,
// so a diff-built replica's image is a permutation of the leader's.
func checkReplica(r *result, ch *churn) {
	l, f := ch.leader.Current(), ch.fstore.Current()
	same := l.Gen() == f.Gen() && l.NumOwners() == f.NumOwners() && reflect.DeepEqual(l.Links(), f.Links())
	for _, q := range ch.keys.byKind[ownerHit] {
		lo, lok := l.Owner(q.addr)
		fo, fok := f.Owner(q.addr)
		same = same && lok == fok && lo == fo
	}
	if !same {
		r.problemf("follower generation %d (%d links, %d owners) does not answer as the leader's generation %d (%d links, %d owners)",
			f.Gen(), f.NumLinks(), f.NumOwners(), l.Gen(), l.NumLinks(), l.NumOwners())
	}
	fs, ls := ch.freg.Snapshot(), ch.lreg.Snapshot()
	m := r.metrics
	m["mapdb.follower.diffs_applied"] = float64(fs.Counter("mapdb.follower.diffs_applied"))
	m["mapdb.follower.full_syncs"] = float64(fs.Counter("mapdb.follower.full_syncs"))
	m["mapdb.follower.redials"] = float64(fs.Counter("mapdb.follower.redials"))
	m["mapdb.follower.sync_errors"] = float64(fs.Counter("mapdb.follower.sync_errors"))
	m["mapdb.watch.lagged"] = float64(ls.Counter("mapdb.watch.lagged"))
	m["mapdb.http.errors"] = float64(fs.Counter("mapdb.http.errors"))
	if n := fs.Counter("mapdb.follower.full_syncs"); n != 1 {
		r.problemf("follower full-synced %d times, want once", n)
	}
	if n := fs.Counter("mapdb.follower.sync_errors"); n != 0 {
		r.problemf("follower counted %d sync errors", n)
	}
	if n := ls.Counter("mapdb.watch.lagged"); n != 0 {
		r.problemf("leader dropped %d lagging watchers", n)
	}
}

// propStats reports propagation over all generations of the run.
func propStats(r *result, run *churnRun) {
	d := make([]float64, len(run.props))
	for i, p := range run.props {
		d[i] = float64(p.dur)
	}
	s, late := sortedCopy(d), sortedCopy(run.lateNS)
	r.metrics["propagate.p50_us"] = percentile(s, 0.5) / 1e3
	r.metrics["propagate.p95_us"] = percentile(s, 0.95) / 1e3
	r.metrics["gen.publish_late_p99_us"] = percentile(late, 0.99) / 1e3
	r.infof("propagation: n=%d generations, p50 %.1f us, p95 %.1f us (sample carries up to p%g), IQR %.1f us; publisher ran late by p50 %.1f us, p99 %.1f us",
		len(s), percentile(s, 0.5)/1e3, percentile(s, 0.95)/1e3, 100*supportedTail(len(s)), iqr(s)/1e3, percentile(late, 0.5)/1e3, percentile(late, 0.99)/1e3)
}

// tracePropagation turns each generation into a span from the instant
// its publish was due to the follower announcing it, with the leader's
// Publish call as its child; what is left is watch encode, loopback,
// Apply and Adopt. Both lists are in generation order.
func tracePropagation(c *runCtx, run *churnRun) {
	for i, p := range run.props {
		id := c.tr.add(i, 0, "propagate", run.baseNS+p.at, run.baseNS+p.at+p.dur)
		if i < len(run.pubs) {
			c.tr.add(i, id, "mapdb.publish", run.baseNS+run.pubs[i].at, run.baseNS+run.pubs[i].at+run.pubs[i].dur)
		}
	}
}

func runServeChurn(c *runCtx) (*result, error) {
	r := newResult()
	var ch *churn
	err := c.timeSetups(r, func(i int) (err error) {
		if ch != nil {
			ch.close()
		}
		ch, err = setupChurn(c, filepath.Join(c.tmp, fmt.Sprintf("churn-%d", i)))
		return err
	})
	if err != nil {
		return nil, err
	}
	defer ch.close()
	r.metrics["link_accuracy"] = ch.accuracy
	r.metrics["gen_packets"] = ch.packetsPerGen
	r.infof("leader cycles %d harvested generations of %s (seed offset %d), one publish due every %v on an open loop; follower tails /v1/watch; %d closed-loop readers on the follower",
		len(ch.images), c.p.roundsProfile, ch.offset, c.p.publishEvery, c.p.readClients)

	gc0, run := gcPauseNS(), &churnRun{baseNS: c.tr.now()}
	readers := newReaders(c, ch.fsrv.url, ch.keys, ch.verifier())
	alloc, err := timedWindows(c, func(w int) error { return churnWindow(c, ch, run, readers, w) })
	if err != nil {
		return nil, err
	}
	run.reads = pool(r, readers)
	r.metrics["gc.pause_total_ms"] = (gcPauseNS() - gc0) / 1e6
	// Every published generation must reach the follower.
	if len(run.props) != len(run.pubs) {
		r.problemf("follower announced %d of %d published generations", len(run.props), len(run.pubs))
	}
	checkReplica(r, ch)
	if len(run.reads) == 0 || len(run.props) == 0 {
		return nil, fmt.Errorf("%d reads succeeded and %d generations propagated", len(run.reads), len(run.props))
	}
	readStats(c, r, run.reads)
	r.metrics["alloc_kb_per_op"] = float64(alloc) / 1024 / float64(len(run.reads))
	propStats(r, run)

	if c.traced() {
		tracePropagation(c, run)
		traceReads(c, run.reads, run.baseNS)
		handlerProbe(c, r, ch.fstore, ch.keys)
		if err := replayProbes(c, r, ch.images); err != nil {
			return nil, err
		}
	}
	return r, nil
}
