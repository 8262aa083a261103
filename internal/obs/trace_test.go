package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bdrmap/internal/netx"
)

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(KindTrace, OnAddr(1), 0)
	tr.Merge(NewTracer())
	tr.MergeRange(NewTracer(), Pos{}, Pos{})
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	if tr.Len() != 0 || tr.Events() != nil || tr.Pos() != (Pos{}) {
		t.Fatal("nil tracer retained state")
	}
	if tr.Fingerprint() != FingerprintEvents(nil) {
		t.Fatal("nil tracer fingerprint differs from empty")
	}
	NewTracer().MergeRange(nil, Pos{}, Pos{})
}

func TestTracerSequencesAndAttrs(t *testing.T) {
	tr := NewTracer()
	tr.Emit(KindDecision, OnAddr(0x0a000001), 0, Str(KeyHeuristic, "ip-as"), Int(KeyHop, 3), Flag(KeyCached, false))
	tr.Emit(KindAlly, OnPair(1, 2), 7, IDs(KeyIPIDs, []uint16{1, 2, 3}))
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("Len = %d, want 2", len(evs))
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("bad seqs: %d, %d", evs[0].Seq, evs[1].Seq)
	}
	want := Event{Stage: StageCore, Kind: "decision", Subject: "10.0.0.1",
		Attrs: []Attr{{"heuristic", "ip-as"}, {"hop", "3"}}} // the unset flag is absent
	if !reflect.DeepEqual(evs[0], want) {
		t.Fatalf("rendered %+v, want %+v", evs[0], want)
	}
	if evs[1].Stage != StageAlias || evs[1].Kind != "ally" || evs[1].Subject != "0.0.0.1|0.0.0.2" || evs[1].SimNS != 7 {
		t.Fatalf("rendered %+v", evs[1])
	}
	// Volatile attrs are addressable by both marked and unmarked name.
	if evs[1].Attr("~ipids") != "1,2,3" || evs[1].Attr("ipids") != "1,2,3" {
		t.Fatalf("volatile attr lookup failed: %+v", evs[1].Attrs)
	}
	if evs[0].Attr("absent") != "" {
		t.Fatal("absent attr must be empty")
	}
}

// TestRecordRendersEveryValueKind: one field of each value kind, edge
// values included, through encode, decode and render.
func TestRecordRendersEveryValueKind(t *testing.T) {
	type H string
	tr := NewTracer()
	tr.Emit(KindTrace, OnAS(uint32(4294967295)), -5,
		Int(KeyHops, -1<<63), Int(KeyBlocks, 1<<62), Flag(KeyReached, true), Flag(KeyStopped, false),
		IP(KeyAt, 0xffffffff), IP(KeyDst, 0), AS(KeyTarget, uint32(0)), ASPair(KeySiblingHit, uint32(7), uint32(4294967295)),
		Str(KeyVia, ""), Str(KeyRel, H("customer")), Strs(KeyDeclined, []H{"firewall", "", "onenet"}), Strs(KeyClass, []H(nil)),
		IPs(KeyAddrs, []netx.Addr{0x01020304, 0}), IPs(KeyNear, nil), IDs(KeyIPIDs, []uint16{0, 65535}), Field{},
		Path(KeyPath, []Hop{{1, HopTimeExceeded, 0x0a000001}, {2, HopTimeout, 0}, {255, HopEchoReply, 0xc0a80001}, {9, HopUnreachable, 1}}),
		Path(KeyFrom, nil))
	ev := tr.Events()[0]
	want := []Attr{
		{"hops", "-9223372036854775808"}, {"blocks", "4611686018427387904"}, {"reached", "true"},
		{"at", "255.255.255.255"}, {"dst", "0.0.0.0"}, {"target", "AS0"}, {"sibling_hit", "AS7~AS4294967295"},
		{"via", ""}, {"rel", "customer"}, {"declined", heurList([]string{"firewall", "", "onenet"})}, {"class", ""},
		{"addrs", "1.2.3.4,0.0.0.0"}, {"near", ""}, {"~ipids", "0,65535"},
		{"path", "1:te:10.0.0.1 2:to 255:er:192.168.0.1 9:un:0.0.0.1"},
		{"from", ""},
	}
	if ev.Subject != "AS4294967295" || ev.SimNS != -5 || !reflect.DeepEqual(ev.Attrs, want) {
		t.Fatalf("rendered %q %d\n got %+v\nwant %+v", ev.Subject, ev.SimNS, ev.Attrs, want)
	}
}

// TestTracerKeepsEveryEvent: the tracer is append-only. A log of more than
// 1<<17 events keeps every one, in order and numbered from zero, and so
// does a tracer it is merged into.
func TestTracerKeepsEveryEvent(t *testing.T) {
	const total = 1<<17 + 5000
	tr := NewTracer()
	for i := 0; i < total; i++ {
		tr.Emit(KindTrace, OnAS(uint32(i)), int64(i))
	}
	if tr.Len() != total {
		t.Fatalf("Len = %d, want %d", tr.Len(), total)
	}
	into := NewTracer()
	into.Merge(tr)
	for _, tr := range []*Tracer{tr, into} {
		evs := tr.Events()
		if len(evs) != total {
			t.Fatalf("%d events rendered, want %d", len(evs), total)
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i) || ev.SimNS != int64(i) || ev.Subject != fmt.Sprintf("AS%d", i) {
				t.Fatalf("event %d: %+v", i, ev)
			}
		}
	}
}

func TestTracerMergeResequences(t *testing.T) {
	a := NewTracer()
	a.Emit(KindTarget, OnAS(uint32(1)), 0)
	f1 := NewTracer()
	f1.Emit(KindTrace, OnAddr(1), 10)
	f2 := NewTracer()
	for i := 0; i < 3; i++ {
		f2.Emit(KindTrace, OnAddr(2), int64(i))
	}
	a.Merge(f1)
	a.Merge(f2)
	evs := a.Events()
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d after merge", i, ev.Seq)
		}
	}
	if len(evs) != 5 {
		t.Fatalf("merged %d events, want 5", len(evs))
	}
	// Fragment SimNS survives the merge untouched.
	if evs[1].SimNS != 10 {
		t.Fatalf("merge rewrote SimNS: %d", evs[1].SimNS)
	}
	// A fragment is read, not consumed.
	if f2.Len() != 3 || f1.Events()[0].Seq != 0 {
		t.Fatalf("merge disturbed its fragments")
	}
}

// TestTracerMergeBatchMatchesCopy: one Merge over a batch of fragments —
// empty, nil and filled ones, some spanning chunks — leaves the events,
// sequence numbers and fingerprint that emitting each fragment's events
// straight into the tracer does. Merging shares the fragments' bytes; this
// is the copy it must be indistinguishable from.
func TestTracerMergeBatchMatchesCopy(t *testing.T) {
	frags := []int{0, -1, 3, 8, 40, 400} // -1: nil
	emit := func(tr *Tracer, f, i int) {
		tr.Emit(KindTrace, OnPair(netx.Addr(f), netx.Addr(i)), int64(i), Int(KeyHops, i),
			Path(KeyPath, []Hop{{uint8(i), HopTimeExceeded, netx.Addr(i)}}))
	}
	got, want := NewTracer(), NewTracer()
	got.Emit(KindTarget, OnAS(uint32(1)), 0)
	want.Emit(KindTarget, OnAS(uint32(1)), 0)
	var batch []*Tracer
	for f, n := range frags {
		if n < 0 {
			batch = append(batch, nil)
			continue
		}
		tr := NewTracer()
		for i := 0; i < n; i++ {
			emit(tr, f, i)
			emit(want, f, i)
		}
		batch = append(batch, tr)
	}
	got.Merge(batch...)
	if !reflect.DeepEqual(got.Events(), want.Events()) {
		t.Errorf("batch merge kept %d events, copy %d", got.Len(), want.Len())
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("fingerprints differ")
	}
}

// TestTracerMergeRangeCutsALog: one log cut at noted positions and merged
// range by range, out of order, is the stream per-fragment tracers gave —
// how the driver turns a worker's log back into per-target fragments.
func TestTracerMergeRangeCutsALog(t *testing.T) {
	log, want := NewTracer(), NewTracer()
	var cuts []Pos
	frags := make([]*Tracer, 5)
	for f := range frags {
		frags[f] = NewTracer()
		for i := 0; i < 200*f; i++ { // fragment 0 is empty; the later ones span chunks
			for _, tr := range []*Tracer{log, frags[f]} {
				tr.Emit(KindTrace, OnPair(netx.Addr(f), netx.Addr(i)), int64(i), Int(KeyHops, i))
			}
		}
		cuts = append(cuts, log.Pos())
	}
	got := NewTracer()
	for _, f := range []int{3, 0, 4, 1, 2} {
		var lo Pos
		if f > 0 {
			lo = cuts[f-1]
		}
		got.MergeRange(log, lo, cuts[f])
		want.Merge(frags[f])
	}
	if got.Len() != 2000 || got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("ranges merged to %d events, fragments to %d; fingerprints equal: %v",
			got.Len(), want.Len(), got.Fingerprint() == want.Fingerprint())
	}
}

// TestTracerMergeReservesOnce pins what the batch form is for: folding a
// batch into a tracer allocates its view list once, however many fragments
// and events there are, and copies no event.
func TestTracerMergeReservesOnce(t *testing.T) {
	var frags []*Tracer
	for f := 0; f < 50; f++ {
		fr := NewTracer()
		for i := 0; i < 40; i++ {
			fr.Emit(KindTrace, OnAddr(1), int64(i))
		}
		frags = append(frags, fr)
	}
	allocs := testing.AllocsPerRun(10, func() { NewTracer().Merge(frags...) })
	// The tracer and its view list; the race detector adds one.
	if allocs > 3 {
		t.Errorf("merging 50 fragments of 40 events allocates %.0f times, want at most 3", allocs)
	}
}

// TestTracerMergeWhileEmitting: a fragment is read in place, so a Merge
// racing emitters on both the fragment and the target must still see each
// fragment event at most once and keep sequence numbers unique. Run under
// -race by CI's chaos job.
func TestTracerMergeWhileEmitting(t *testing.T) {
	dst, frag := NewTracer(), NewTracer()
	var wg sync.WaitGroup
	for _, tr := range []*Tracer{dst, frag} {
		wg.Add(1)
		go func(tr *Tracer) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(KindTrace, OnAddr(netx.Addr(i)), int64(i), Int(KeyHops, i))
			}
		}(tr)
	}
	dst.Merge(frag)
	mid := dst.Events() // decoded while both emitters may still be appending
	wg.Wait()
	dst.Merge(frag) // everything emitted by now, some of it for the second time
	evs := dst.Events()
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Subject != netx.Addr(ev.SimNS).String() || ev.Attr("hops") != fmt.Sprint(ev.SimNS) {
			t.Fatalf("event %d: %+v", i, ev)
		}
	}
	if !reflect.DeepEqual(mid, evs[:len(mid)]) {
		t.Fatalf("the stream's head changed under a reader")
	}
	if n := dst.Len(); n < 1000 || n > 1500 {
		t.Fatalf("merged tracer holds %d events, want its own 500, the fragment's 500, and at most 500 merged twice", n)
	}
}

// TestEmitAllocFree is the contract the emit sites rely on to stay
// unguarded: on a warm tracer, stating an event — its fields, the path and
// the sample list included — allocates nothing, so a Field never outlives
// the call and provenance costs the bytes it stores and no more.
func TestEmitAllocFree(t *testing.T) {
	type H string
	tr := NewTracer()
	path := make([]Hop, 12)
	ids := []uint16{1, 2, 3, 4, 5, 6}
	addrs := []netx.Addr{1, 2, 3}
	declined := []H{"firewall", "onenet"}
	heur, as := H("as-relationship"), uint32(7)
	events := []func(){
		func() { tr.Emit(KindTarget, OnAS(as), 0, Int(KeyBlocks, 3)) },
		func() { tr.Emit(KindTargetLost, OnAS(as), 5) },
		func() {
			tr.Emit(KindTrace, OnAddr(9), 5, AS(KeyTarget, as), Int(KeyHops, len(path)), Path(KeyPath, path),
				Flag(KeyReached, true), Flag(KeyStopped, false), Flag(KeyCached, true))
		},
		func() { tr.Emit(KindStopsetHit, OnAddr(9), 5, IP(KeyAt, 4)) },
		func() { tr.Emit(KindStopsetAdd, OnAddr(9), 5, IP(KeyDst, 4)) },
		func() { tr.Emit(KindMercator, OnAddr(9), 5, IP(KeyFrom, 4), Str(KeyVerdict, "alias")) },
		func() {
			tr.Emit(KindAlly, OnPair(1, 2), 5, Str(KeyVerdict, "alias"), Str(KeyMethod, "udp"), Int(KeyRounds, 5), IDs(KeyIPIDs, ids))
		},
		func() { tr.Emit(KindMerge, OnAddr(1), 0, IP(KeyMerged, 2), Str(KeyVia, "analytical")) },
		func() {
			tr.Emit(KindDecision, OnAddr(1), 0, Str(KeyHeuristic, heur), AS(KeyOwner, as), Int(KeyHop, 3),
				Str(KeyClass, "host"), IPs(KeyAddrs, addrs), AS(KeyOriginAS, as), Str(KeyRel, "customer"),
				Strs(KeyDeclined, declined), AS(KeyAdjacentAS, as), ASPair(KeySiblingHit, as, as))
		},
	}
	if len(events) != int(numKinds)-1 {
		t.Fatalf("%d events for %d kinds", len(events), numKinds-1)
	}
	for i := 0; i < 2000; i++ { // warm: chunks at full size
		events[i%len(events)]()
	}
	for k, emit := range events {
		// A chunk is allocated every few hundred events; 100 runs of one
		// event stay well inside the chunk the warm-up left.
		if allocs := testing.AllocsPerRun(100, emit); allocs != 0 {
			t.Errorf("emitting a %s allocates %.2f times per event, want 0", kindNames[k+1].name, allocs)
		}
	}
}

// TestKVMatchesFmt: the strconv renderings are what fmt's %v printed, so
// no trace or span fingerprint moved when KV stopped calling fmt.
func TestKVMatchesFmt(t *testing.T) {
	type stringer struct{ a, b int }
	for _, v := range []any{
		"text", "", true, false,
		0, -1, 42, int(^uint(0) >> 1), -int(^uint(0)>>1) - 1,
		int64(-9223372036854775808), int64(9223372036854775807),
		uint(7), uint8(255), uint16(65535), uint32(4294967295), uint64(18446744073709551615),
		int8(-3), int32(-70000), 1.5, float32(0.25), []int{1, 2}, stringer{1, 2}, nil, StageProbe,
	} {
		if got, want := KV("k", v), fmt.Sprintf("%v", v); got.K != "k" || got.V != want {
			t.Errorf("KV(%T %v) = %+v, fmt prints %q", v, v, got, want)
		}
	}
}

func TestTracerJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.Emit(KindDecision, OnAddr(0x0a000001), 0, AS(KeyOwner, uint32(7)), IDs(KeyIPIDs, []uint16{9, 9}))
	tr.Emit(KindStopsetHit, OnAddr(0x01020304), 42)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(strings.NewReader(buf.String() + "\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip lost events: %d", len(back))
	}
	if FingerprintEvents(back) != tr.Fingerprint() {
		t.Fatal("fingerprint changed across JSONL round trip")
	}
	if back[0].Attr("ipids") != "9,9" {
		t.Fatal("volatile attr lost in JSONL")
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line must error")
	}
}

func TestFingerprintExcludesVolatileAttrs(t *testing.T) {
	mk := func(ids ...uint16) *Tracer {
		tr := NewTracer()
		tr.Emit(KindAlly, OnPair(1, 2), 5,
			Str(KeyVerdict, "alias"), IDs(KeyIPIDs, ids))
		return tr
	}
	if mk(1, 2, 3).Fingerprint() != mk(7, 8, 9).Fingerprint() {
		t.Fatal("volatile attr leaked into fingerprint")
	}
	// Non-volatile differences must change it.
	other := NewTracer()
	other.Emit(KindAlly, OnPair(1, 2), 5,
		Str(KeyVerdict, "not-alias"), IDs(KeyIPIDs, []uint16{1, 2, 3}))
	if mk(1, 2, 3).Fingerprint() == other.Fingerprint() {
		t.Fatal("fingerprint ignored a verdict change")
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Emit(KindTrace, OnAddr(1), int64(i))
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 1600 {
		t.Fatalf("Len = %d, want 1600", tr.Len())
	}
	seen := make(map[uint64]bool)
	for _, ev := range tr.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// FuzzTraceJSONL: ReadJSONL decodes a file an operator hands `bdrmap
// -trace-in`. Whatever it accepts must re-export to a fixed point — a second
// import and export changes nothing — fingerprint, and go through Explain
// without a panic, whatever stages, kinds and attrs the file invents.
func FuzzTraceJSONL(f *testing.F) {
	tr := NewTracer()
	tr.Emit(KindTrace, OnAddr(0x0a000001), 5, AS(KeyTarget, uint32(7)), Path(KeyPath, []Hop{{1, HopTimeExceeded, 0x0a000002}}))
	tr.Emit(KindAlly, OnPair(0x0a000001, 0x0a000002), 9, Str(KeyVerdict, "alias"), IDs(KeyIPIDs, []uint16{1, 2}))
	tr.Emit(KindDecision, OnAddr(0x0a000002), 0, Str(KeyHeuristic, "onenet"), AS(KeyOwner, uint32(7)), IPs(KeyAddrs, []netx.Addr{0x0a000001, 0x0a000002}))
	var seed bytes.Buffer
	if err := tr.WriteJSONL(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), "10.0.0.1")
	f.Add([]byte(`{"seq":1,"sim_ns":-1,"stage":"core","kind":"decision","subject":"","attrs":[{"k":"addrs","v":",,"},{"k":"~","v":"AS7"}]}`+"\n\n{}"), "AS7")
	f.Add([]byte(`{"stage":"core","kind":"decision","attrs":[{"k":"owner"}]}`), "")
	f.Add([]byte("not json"), "x")
	f.Fuzz(func(t *testing.T, data []byte, query string) {
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := writeJSONL(&first, events); err != nil {
			t.Fatalf("accepted events do not export: %v", err)
		}
		back, err := ReadJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("own export rejected: %v", err)
		}
		if err := writeJSONL(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("export is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
		if FingerprintEvents(events) != FingerprintEvents(back) {
			t.Fatal("fingerprint moved across a round trip")
		}
		if Explain(events, query) != Explain(back, query) {
			t.Fatal("explain moved across a round trip")
		}
	})
}
