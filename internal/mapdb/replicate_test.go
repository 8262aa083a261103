package mapdb

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/faults"
	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// watchServer serves the full API for st with a test-friendly keepalive.
func watchServer(st *Store, keepalive time.Duration) *httptest.Server {
	return httptest.NewServer(watchHandler(st, keepalive))
}

// watchHandler is watchServer's API without the server.
func watchHandler(st *Store, keepalive time.Duration) http.Handler {
	a := &api{store: st, watchKeepalive: keepalive}
	mux := http.NewServeMux()
	mux.Handle("/v1/gen", a.wrap("gen", a.handleGen))
	mux.Handle("/v1/diff", a.wrap("diff", a.handleDiff))
	mux.Handle("/v1/watch", a.wrapStream("watch", a.handleWatch))
	mux.Handle("/v1/segment", a.wrap("segment", a.handleSegment))
	mux.Handle("/", NotFoundHandler())
	return mux
}

// collectFrames runs a WatchClient and forwards frames on a channel until
// ctx ends.
func collectFrames(ctx context.Context, t *testing.T, base string, from int) (<-chan WatchFrame, <-chan error) {
	frames := make(chan WatchFrame, 64)
	errc := make(chan error, 1)
	go func() {
		defer close(frames)
		wc := &WatchClient{Base: base, From: from}
		errc <- wc.Run(ctx, func(f WatchFrame) error {
			select {
			case frames <- f:
			case <-ctx.Done():
			}
			return nil
		})
	}()
	return frames, errc
}

func nextFrame(t *testing.T, frames <-chan WatchFrame, want string) WatchFrame {
	t.Helper()
	select {
	case f, ok := <-frames:
		if !ok {
			t.Fatalf("stream ended waiting for %q frame", want)
		}
		if f.Type != want {
			t.Fatalf("frame type = %q, want %q", f.Type, want)
		}
		return f
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %q frame", want)
	}
	return WatchFrame{}
}

// TestWatchStreamsDiffs subscribes to /v1/watch and requires a hello
// frame naming the current generation followed by one diff frame per
// publish, matching the diffs Publish itself computed.
func TestWatchStreamsDiffs(t *testing.T) {
	st := NewStore(0, nil)
	st.Publish(Compile(64500, []*core.Result{genResult(1, 8)}))
	srv := watchServer(st, 0)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	frames, _ := collectFrames(ctx, t, srv.URL, 0)

	if f := nextFrame(t, frames, "hello"); f.Gen != 1 || f.HostAS != 64500 {
		t.Fatalf("hello = gen %d host %d, want gen 1 host 64500", f.Gen, f.HostAS)
	}
	d2 := st.Publish(Compile(64500, []*core.Result{genResult(2, 8)}))
	f := nextFrame(t, frames, "diff")
	if f.Diff == nil || f.Diff.From != 1 || f.Diff.To != 2 {
		t.Fatalf("diff frame = %+v, want 1→2", f.Diff)
	}
	if !reflect.DeepEqual(f.Diff, d2) {
		t.Fatal("streamed diff does not round-trip the published diff")
	}
	d3 := st.Publish(Compile(64500, []*core.Result{genResult(3, 8)}))
	if f := nextFrame(t, frames, "diff"); !reflect.DeepEqual(f.Diff, d3) {
		t.Fatal("second streamed diff diverged")
	}
}

// TestWatchResumeAndKeepalive resumes from a retained generation (backlog
// replay, then live) and then sits idle long enough to receive keepalives.
func TestWatchResumeAndKeepalive(t *testing.T) {
	st := NewStore(0, nil)
	for g := 1; g <= 4; g++ {
		st.Publish(Compile(64500, []*core.Result{genResult(g, 8)}))
	}
	srv := watchServer(st, 50*time.Millisecond)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	frames, _ := collectFrames(ctx, t, srv.URL, 2)

	if f := nextFrame(t, frames, "hello"); f.Gen != 4 {
		t.Fatalf("hello gen = %d, want 4", f.Gen)
	}
	for _, want := range []int{3, 4} {
		f := nextFrame(t, frames, "diff")
		if f.Diff.To != want {
			t.Fatalf("backlog diff to = %d, want %d", f.Diff.To, want)
		}
	}
	st.Publish(Compile(64500, []*core.Result{genResult(5, 8)}))
	if f := nextFrame(t, frames, "diff"); f.Diff.To != 5 {
		t.Fatalf("live diff to = %d, want 5", f.Diff.To)
	}
	nextFrame(t, frames, "keepalive")
}

// TestWatchResumeGap requires a resume generation that fell out of the
// bounded history to answer a structured 404 — the client's signal to
// full-sync from /v1/segment.
func TestWatchResumeGap(t *testing.T) {
	st := NewStore(2, nil)
	for g := 1; g <= 6; g++ {
		st.Publish(Compile(64500, []*core.Result{genResult(g, 8)}))
	}
	srv := watchServer(st, 0)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	wc := &WatchClient{Base: srv.URL, From: 1}
	if err := wc.Run(ctx, func(WatchFrame) error { return nil }); err != ErrGenUnknown {
		t.Fatalf("resume from evicted generation returned %v, want ErrGenUnknown", err)
	}
	// Ahead of the leader is equally unknown.
	wc = &WatchClient{Base: srv.URL, From: 99}
	if err := wc.Run(ctx, func(WatchFrame) error { return nil }); err != ErrGenUnknown {
		t.Fatalf("resume from future generation returned %v, want ErrGenUnknown", err)
	}
}

// TestWatchFirstPublish attaches a watcher before any generation exists:
// the first publish must arrive as a synthetic everything-added diff, so
// monitors attached early see the initial map.
func TestWatchFirstPublish(t *testing.T) {
	st := NewStore(0, nil)
	srv := watchServer(st, 0)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	frames, _ := collectFrames(ctx, t, srv.URL, 0)
	if f := nextFrame(t, frames, "hello"); f.Gen != 0 {
		t.Fatalf("hello gen = %d, want 0", f.Gen)
	}
	snap := Compile(64500, []*core.Result{genResult(1, 8)})
	st.Publish(snap)
	f := nextFrame(t, frames, "diff")
	if f.Diff.To != 1 || len(f.Diff.Added) != snap.NumLinks() {
		t.Fatalf("first-publish frame = %d added into gen %d, want all %d links into gen 1",
			len(f.Diff.Added), f.Diff.To, snap.NumLinks())
	}
}

// TestSnapshotApplyReconstructs replays published diffs on top of the
// previous generation and requires the reconstruction to answer every
// query identically to the directly compiled snapshot — the follower's
// correctness core.
func TestSnapshotApplyReconstructs(t *testing.T) {
	st := NewStore(0, nil)
	snaps := []*Snapshot{Compile(64500, []*core.Result{genResult(1, 12)})}
	st.Publish(snaps[0])
	var diffs []*GenDiff
	for g := 2; g <= 4; g++ {
		s := Compile(64500, []*core.Result{genResult(g, 8+g)})
		diffs = append(diffs, st.Publish(s))
		snaps = append(snaps, s)
	}

	cur := snaps[0]
	for i, d := range diffs {
		next, err := cur.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		requireSnapshotsAnswerIdentically(t, snaps[i+1], next)
		cur = next
	}

	// A diff must refuse to apply to the wrong base generation.
	if _, err := snaps[0].Apply(diffs[1]); err == nil {
		t.Fatal("applying a 2→3 diff to generation 1 did not error")
	}
}

// image is the snapshot's WriteTo byte stream.
func image(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// overWire passes d through its /v1/watch JSON form, as a follower gets it.
func overWire(t testing.TB, d *GenDiff) *GenDiff {
	t.Helper()
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	out := new(GenDiff)
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotApplyImageMatchesLeader is the canonical-bytes contract: for
// every generation of a churning map — real inference output of a one-VP
// and a three-VP world, stepped through a relabel and an owner removal —
// the segment image is the
// same whether the snapshot was compiled, decoded from that image, or
// rebuilt by a replica applying the wire form of each published diff to
// its own previous generation.
func TestSnapshotApplyImageMatchesLeader(t *testing.T) {
	for _, name := range []string{"tiny", "regional-vp"} {
		t.Run(name, func(t *testing.T) {
			prof, ok := topo.ProfileByName(name)
			if !ok {
				t.Fatalf("%s profile missing", name)
			}
			s := eval.Build(prof, 1)
			s.RunAll()
			full := s.Results

			// edited returns results with every entry replaced by an edited
			// shallow copy; the inference output itself is never touched.
			edited := func(results []*core.Result, edit func(i int, r *core.Result)) []*core.Result {
				out := make([]*core.Result, len(results))
				for i, r := range results {
					c := *r
					edit(i, &c)
					out[i] = &c
				}
				return out
			}
			relabeled := edited(full, func(i int, r *core.Result) {
				if i == 0 {
					l := *r.Links[0]
					l.Heuristic = "relabeled"
					r.Links = append([]*core.Link{&l}, r.Links[1:]...)
				}
			})
			var gone netx.Addr
			for _, rn := range full[0].Routers {
				if rn.Owner != 0 {
					gone = rn.Addrs[0]
				}
			}
			ownerGone := edited(relabeled, func(_ int, r *core.Result) {
				var keep []*core.RouterNode
				for _, rn := range r.Routers {
					if rn.Addrs[0] != gone {
						keep = append(keep, rn)
					}
				}
				r.Routers = keep
			})
			steps := []struct {
				what    string
				results []*core.Result
				ok      func(d *GenDiff) bool
			}{
				{"first", full, func(d *GenDiff) bool { return d == nil }},
				{"relabel", relabeled, func(d *GenDiff) bool { return len(d.Relabeled) > 0 }},
				{"owner removal", ownerGone, func(d *GenDiff) bool { return len(d.OwnersRemoved) > 0 }},
			}
			leader := NewStore(0, nil)
			var replica *Snapshot
			for _, step := range steps {
				compiled := Compile(s.Net.HostASN, step.results)
				d := leader.Publish(compiled)
				if !step.ok(d) {
					t.Fatalf("%s: the step did not produce the churn it is named for: %+v", step.what, d)
				}
				want := image(t, compiled)

				opened, err := ReadSegment(want)
				if err != nil {
					t.Fatalf("%s: %v", step.what, err)
				}
				if !bytes.Equal(image(t, opened), want) {
					t.Errorf("%s: image changed across a segment round trip", step.what)
				}
				if replica == nil {
					replica = opened // the follower's first contact is a full sync
				} else if replica, err = replica.Apply(overWire(t, d)); err != nil {
					t.Fatalf("%s: %v", step.what, err)
				}
				if !bytes.Equal(image(t, replica), want) {
					t.Errorf("%s: diff-built replica's image differs from the leader's", step.what)
				}
			}
		})
	}
}

// TestDiffWireRoundtrip pins the replication frame codec: a GenDiff with
// every field populated must survive its own JSON encode/decode bit-exactly,
// and a malformed address must fail the decode.
func TestDiffWireRoundtrip(t *testing.T) {
	d := &GenDiff{
		From: 3, To: 4,
		Added:            []Link{{Near: 1, Far: 2, FarAS: 7, Heuristic: "a"}},
		Removed:          []Link{{Near: 3, Far: 0, FarAS: 8, Heuristic: "b"}},
		Relabeled:        []Link{{Near: 5, Far: 6, FarAS: 9, Heuristic: "c"}},
		NeighborsAdded:   []topo.ASN{7},
		NeighborsRemoved: []topo.ASN{8},
		OwnerChanges:     []OwnerChange{{Addr: 9, From: 1, To: 2}},
		OwnersSet:        []OwnerDelta{{Addr: 9, OwnerInfo: OwnerInfo{AS: 2, Heuristic: "h", Host: true, HopDist: 3}}},
		OwnersRemoved:    []netx.Addr{11},
		VPs:              []string{"east", "west"},
	}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got := new(GenDiff)
	if err := json.Unmarshal(raw, got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("wire roundtrip diverged:\nwant %+v\ngot  %+v", d, got)
	}
	for _, bad := range []string{
		`{"from":1,"to":2,"added":[{"near":"10.0.0.256","far":"0.0.0.0","far_as":7}]}`,
		`{"from":1,"to":2,"owner_changes":[{"addr":"10.0.0","from":1,"to":2}]}`,
		`{"from":1,"to":2,"owners_set":[{"addr":"","as":2}]}`,
		`{"from":1,"to":2,"owners_removed":[167772161]}`,
	} {
		if err := json.Unmarshal([]byte(bad), new(GenDiff)); err == nil {
			t.Errorf("malformed frame decoded without error: %s", bad)
		}
	}
}

// TestWatchFrameBytesPinned pins the /v1/watch wire: the literals are the
// NDJSON lines the handler emitted when GenDiff still had a shadow wire
// struct (commit 139396d), for a hello, a diff with every field set (a
// silent added link, an owner record with only its AS), an empty diff and
// a keepalive — and the bare frames of a store with no generation yet.
func TestWatchFrameBytesPinned(t *testing.T) {
	addr := netx.MustParseAddr
	full := &GenDiff{
		From: 1, To: 2,
		Added: []Link{
			{Near: addr("10.0.0.1"), Far: addr("10.0.0.2"), FarAS: 50001, Heuristic: "as-relationship"},
			{Near: addr("10.0.0.5"), FarAS: 50002, Heuristic: "silent-neighbor"},
		},
		Removed:          []Link{{Near: addr("10.0.0.9"), Far: addr("10.0.0.10"), FarAS: 50003}},
		Relabeled:        []Link{{Near: addr("10.0.0.13"), Far: addr("10.0.0.14"), FarAS: 50004, Heuristic: "onenet"}},
		NeighborsAdded:   []topo.ASN{50001, 50002},
		NeighborsRemoved: []topo.ASN{50003},
		OwnerChanges:     []OwnerChange{{Addr: addr("10.0.0.2"), From: 50003, To: 50001}},
		OwnersSet: []OwnerDelta{
			{Addr: addr("10.0.0.2"), OwnerInfo: OwnerInfo{AS: 50001, Heuristic: "as-relationship", Host: true, HopDist: 3}},
			{Addr: addr("10.0.0.6"), OwnerInfo: OwnerInfo{AS: 50002}},
		},
		OwnersRemoved: []netx.Addr{addr("10.0.0.10")},
		VPs:           []string{"east", "west"},
	}
	st := NewStore(0, nil)
	for g, d := range []*GenDiff{nil, full, {From: 2, To: 3}} {
		snap := Compile(64500, []*core.Result{genResult(g+1, 4)})
		snap.gen = g + 1
		if err := st.Adopt(snap, d); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		st   *Store
		path string
		want []string
	}{
		{st, "/v1/watch?from=1", []string{
			`{"type":"hello","gen":3,"host_as":64500}`,
			`{"type":"diff","gen":2,"diff":{"from":1,"to":2,"added":[{"near":"10.0.0.1","far":"10.0.0.2","far_as":50001,"heuristic":"as-relationship"},{"near":"10.0.0.5","far":"0.0.0.0","far_as":50002,"heuristic":"silent-neighbor"}],"removed":[{"near":"10.0.0.9","far":"10.0.0.10","far_as":50003}],"relabeled":[{"near":"10.0.0.13","far":"10.0.0.14","far_as":50004,"heuristic":"onenet"}],"neighbors_added":[50001,50002],"neighbors_removed":[50003],"owner_changes":[{"addr":"10.0.0.2","from":50003,"to":50001}],"owners_set":[{"addr":"10.0.0.2","as":50001,"heuristic":"as-relationship","host":true,"hop_dist":3},{"addr":"10.0.0.6","as":50002}],"owners_removed":["10.0.0.10"],"vps":["east","west"]}}`,
			`{"type":"diff","gen":3,"diff":{"from":2,"to":3}}`,
			`{"type":"keepalive","gen":3}`,
		}},
		{NewStore(0, nil), "/v1/watch", []string{
			`{"type":"hello"}`,
			`{"type":"keepalive"}`,
		}},
	} {
		srv := watchServer(tc.st, 20*time.Millisecond)
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		for i, want := range tc.want {
			if !sc.Scan() {
				t.Fatalf("%s: stream ended before line %d: %v", tc.path, i, sc.Err())
			}
			if got := sc.Text(); got != want {
				t.Errorf("%s line %d:\n got %s\nwant %s", tc.path, i, got, want)
			}
		}
		resp.Body.Close()
		srv.Close()
	}
}

// TestAdoptGapNotifiesTrueDiff is the regression for a full sync lying to
// the follower's own watchers: a subscriber that saw generation 1 and is
// then handed generation 5 wholesale (Adopt with no diff) must be told
// what changed since 1 — removals included — not "everything added since
// the empty map". Only a store's very first generation is diffed against
// nothing.
func TestAdoptGapNotifiesTrueDiff(t *testing.T) {
	gen := func(g, tag int) *Snapshot {
		s := Compile(64500, []*core.Result{genResult(tag, 8)})
		s.gen = g
		return s
	}
	st := NewStore(0, nil)
	ch, cancel, _ := st.Watch(4)
	defer cancel()

	g1 := gen(1, 1)
	if err := st.Adopt(g1, nil); err != nil {
		t.Fatal(err)
	}
	if d := <-ch; d.From != 0 || d.To != 1 || len(d.Added) != g1.NumLinks() || len(d.Removed) != 0 {
		t.Fatalf("first generation frame = %d→%d +%d -%d, want 0→1 +%d -0",
			d.From, d.To, len(d.Added), len(d.Removed), g1.NumLinks())
	}

	g5 := gen(5, 2) // a different far AS: every link of g1 is gone
	if err := st.Adopt(g5, nil); err != nil {
		t.Fatal(err)
	}
	d := <-ch
	if want := diffSnapshots(g1, g5); !reflect.DeepEqual(d, want) {
		t.Fatalf("gap frame = %d→%d +%d -%d, want %d→%d +%d -%d", d.From, d.To,
			len(d.Added), len(d.Removed), want.From, want.To, len(want.Added), len(want.Removed))
	}
	if d.From != 1 || len(d.Removed) != g1.NumLinks() {
		t.Fatalf("gap frame hides the removals: %d→%d -%d", d.From, d.To, len(d.Removed))
	}
	if next, err := g1.Apply(d); err != nil {
		t.Fatalf("a watcher at generation 1 cannot apply the gap frame: %v", err)
	} else {
		requireSnapshotsAnswerIdentically(t, g5, next)
	}
	if _, err := st.Diff(4, 5); err == nil {
		t.Fatal("a non-adjacent gap diff was cached as 4→5")
	}

	// An adjacent full sync is an ordinary generation step and is cached.
	if err := st.Adopt(gen(6, 3), nil); err != nil {
		t.Fatal(err)
	}
	if cached, err := st.Diff(5, 6); err != nil || cached != <-ch {
		t.Fatalf("adjacent adopted diff not cached: %v", err)
	}
}

// flakyProxy is a TCP relay whose active connections can be severed and
// whose listener can be taken down, simulating a replication-link outage.
type flakyProxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	conns map[net.Conn]bool
	down  bool
}

func newFlakyProxy(t *testing.T, target string) *flakyProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{ln: ln, target: target, conns: make(map[net.Conn]bool)}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go p.handle(c)
		}
	}()
	t.Cleanup(func() { ln.Close(); p.sever() })
	return p
}

func (p *flakyProxy) URL() string { return "http://" + p.ln.Addr().String() }

func (p *flakyProxy) handle(c net.Conn) {
	p.mu.Lock()
	if p.down {
		p.mu.Unlock()
		c.Close()
		return
	}
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.conns[c] = true
	p.conns[up] = true
	p.mu.Unlock()
	done := make(chan struct{}, 2)
	cp := func(dst, src net.Conn) {
		_, _ = io.Copy(dst, src)
		done <- struct{}{}
	}
	go cp(up, c)
	go cp(c, up)
	<-done
	c.Close()
	up.Close()
	p.mu.Lock()
	delete(p.conns, c)
	delete(p.conns, up)
	p.mu.Unlock()
}

// sever closes every active relayed connection.
func (p *flakyProxy) sever() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
	}
}

// setDown gates new connections (true refuses them at accept).
func (p *flakyProxy) setDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

// cutCounter counts the writes its injector cut.
type cutCounter struct {
	net.Conn
	cuts *atomic.Int64
}

func (c cutCounter) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if errors.Is(err, faults.ErrInjected) {
		c.cuts.Add(1)
	}
	return n, err
}

// TestFollowerConvergesThroughFaultyTransport: a follower whose Client
// dials the leader through a seeded fault injector — requests cut
// mid-write or stalled until the schedule heals — while the leader drops
// every connection at some publish steps, and at others crashes and
// recovers from its data dir on the same address, holds the leader's
// WriteTo bytes for every published generation (ROADMAP item 6's I1) and
// re-converges after every disruption (I5, for one follower).
func TestFollowerConvergesThroughFaultyTransport(t *testing.T) {
	const gens = 12
	dir := t.TempDir()
	leader, err := OpenStore(dir, gens, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := "127.0.0.1:0"
	var srv *http.Server
	serve := func() {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		addr = ln.Addr().String()
		srv = &http.Server{Handler: watchHandler(leader, 0)}
		go srv.Serve(ln)
	}
	serve()
	defer func() { srv.Close() }()
	leader.Publish(Compile(64500, []*core.Result{genResult(1, 16)}))

	inj := faults.New(faults.Spec{Seed: 3, Cut: 0.3, Stall: 0.3, StallFor: 5 * time.Millisecond, Heal: 10})
	var cuts atomic.Int64
	fstore := NewStore(gens, nil)
	fl := &Follower{
		Leader: "http://" + addr, Store: fstore,
		Client: &http.Client{Transport: &http.Transport{
			DialContext: func(_ context.Context, _, addr string) (net.Conn, error) {
				c, err := inj.DialFunc(addr)
				if err != nil {
					return nil, err
				}
				return cutCounter{c, &cuts}, nil
			},
		}},
		RedialMin: 5 * time.Millisecond, RedialMax: 50 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { fl.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()

	image := func(s *Snapshot) []byte {
		var b bytes.Buffer
		if _, err := s.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	holds := func(g int) bool {
		want, _ := leader.Generation(g)
		got, ok := fstore.Generation(g)
		return ok && bytes.Equal(image(got), image(want))
	}
	for g := 1; g <= gens; g++ {
		if g > 1 {
			switch g % 4 {
			case 2: // every connection drops
				srv.Close()
				serve()
			case 0: // the leader crashes and recovers from its segments
				srv.Close()
				if leader, err = OpenStore(dir, gens, nil); err != nil {
					t.Fatal(err)
				}
				serve()
			}
			leader.Publish(Compile(64500, []*core.Result{genResult(g, 16)}))
		}
		deadline := time.Now().Add(15 * time.Second)
		for fstore.Current() == nil || fstore.Current().Gen() < g {
			if time.Now().After(deadline) {
				t.Fatalf("follower did not reach generation %d", g)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !holds(g) {
			t.Fatalf("follower at generation %d does not hold the leader's bytes for it", g)
		}
	}
	for g := 1; g <= gens; g++ {
		if !holds(g) {
			t.Errorf("generation %d: follower does not hold the leader's bytes", g)
		}
	}
	if cuts.Load() == 0 {
		t.Error("the fault schedule cut no request")
	}
}

// TestFollowerConvergesAcrossKillRedial is the replication acceptance
// test: a follower joins mid-churn through a proxy, converges, survives a
// severed replication link during which the leader's history moves past
// the follower's resume point (forcing 404 → full segment sync), redials,
// and converges again — ending with identical /v1/gen bytes and identical
// served link sets.
func TestFollowerConvergesAcrossKillRedial(t *testing.T) {
	const maxHist = 4
	leader := NewStore(maxHist, nil)
	lsrv := watchServer(leader, 0)
	defer lsrv.Close()
	proxy := newFlakyProxy(t, lsrv.Listener.Addr().String())

	// Mid-churn join: three generations exist before the follower starts.
	for g := 1; g <= 3; g++ {
		leader.Publish(Compile(64500, []*core.Result{genResult(g, 16)}))
	}

	fstore := NewStore(maxHist, nil)
	fl := &Follower{
		Leader: proxy.URL(), Store: fstore,
		RedialMin: 10 * time.Millisecond, RedialMax: 50 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go fl.Run(ctx)

	waitGen := func(want int) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			if cur := fstore.Current(); cur != nil && cur.Gen() >= want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		cur := fstore.Current()
		got := 0
		if cur != nil {
			got = cur.Gen()
		}
		t.Fatalf("follower stuck at generation %d, want %d", got, want)
	}
	waitGen(3)

	// Outage: sever the replication link and keep it down while the
	// leader publishes past the follower's resume window.
	proxy.setDown(true)
	proxy.sever()
	for g := 4; g <= 9; g++ {
		leader.Publish(Compile(64500, []*core.Result{genResult(g, 16)}))
	}
	proxy.setDown(false)
	waitGen(9) // resume gen 3 evicted → 404 → full sync

	// Live tail after the redial, enough to align both history windows.
	for g := 10; g <= 12; g++ {
		leader.Publish(Compile(64500, []*core.Result{genResult(g, 16)}))
	}
	waitGen(12)

	// Identical /v1/gen bytes.
	fsrv := watchServer(fstore, 0)
	defer fsrv.Close()
	genBody := func(base string) string {
		resp, err := http.Get(base + "/v1/gen")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	lb, fb := genBody(lsrv.URL), genBody(fsrv.URL)
	if lb != fb {
		t.Fatalf("/v1/gen diverged:\nleader   %s\nfollower %s", lb, fb)
	}

	// Identical link bytes, and every query answer with them.
	lcur, fcur := leader.Current(), fstore.Current()
	if !reflect.DeepEqual(lcur.Links(), fcur.Links()) {
		t.Fatal("served link sets diverged")
	}
	requireSnapshotsAnswerIdentically(t, lcur, fcur)

	// The follower adopted the leader's diffs verbatim: common retained
	// generations serve the same /v1/diff content.
	for g := 10; g <= 12; g++ {
		ld, lerr := leader.Diff(g-1, g)
		fd, ferr := fstore.Diff(g-1, g)
		if lerr != nil || ferr != nil {
			t.Fatalf("diff %d→%d: leader err %v, follower err %v", g-1, g, lerr, ferr)
		}
		if !reflect.DeepEqual(ld, fd) {
			t.Fatalf("diff %d→%d diverged between leader and follower", g-1, g)
		}
	}
}
