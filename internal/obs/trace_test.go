package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(StageProbe, "trace", "x", 0)
	tr.Merge(NewTracer(4))
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer retained state")
	}
	if tr.Fingerprint() != FingerprintEvents(nil) {
		t.Fatal("nil tracer fingerprint differs from empty")
	}
}

func TestTracerSequencesAndAttrs(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(StageCore, "decision", "10.0.0.1", 0, KV("heuristic", "ip-as"), KV("hop", 3))
	tr.Emit(StageAlias, "ally", "a|b", 7, Attr{K: "~ipids", V: "1,2,3"})
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("Len = %d, want 2", len(evs))
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("bad seqs: %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].Attr("hop") != "3" {
		t.Fatalf("KV int formatting: %q", evs[0].Attr("hop"))
	}
	// Volatile attrs are addressable by both marked and unmarked name.
	if evs[1].Attr("~ipids") != "1,2,3" || evs[1].Attr("ipids") != "1,2,3" {
		t.Fatalf("volatile attr lookup failed: %+v", evs[1].Attrs)
	}
	if evs[0].Attr("absent") != "" {
		t.Fatal("absent attr must be empty")
	}
}

func TestTracerRingDropsOldest(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Emit(StageProbe, "trace", string(rune('a'+i)), int64(i))
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	evs := tr.Events()
	if evs[0].Subject != "c" || evs[2].Subject != "e" {
		t.Fatalf("ring kept wrong window: %v..%v", evs[0].Subject, evs[2].Subject)
	}
	// Sequence numbers keep counting across drops.
	if evs[2].Seq != 4 {
		t.Fatalf("last seq = %d, want 4", evs[2].Seq)
	}
}

func TestTracerMergeResequences(t *testing.T) {
	a := NewTracer(8)
	a.Emit(StageProbe, "target", "AS1", 0)
	f1 := NewTracer(8)
	f1.Emit(StageProbe, "trace", "d1", 10)
	f2 := NewTracer(2)
	for i := 0; i < 3; i++ { // overflows: one drop carried over
		f2.Emit(StageProbe, "trace", "d2", int64(i))
	}
	a.Merge(f1)
	a.Merge(f2)
	evs := a.Events()
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d after merge", i, ev.Seq)
		}
	}
	if a.Dropped() != 1 {
		t.Fatalf("merged drop count = %d, want 1", a.Dropped())
	}
	// Fragment SimNS survives the merge untouched.
	if evs[1].SimNS != 10 {
		t.Fatalf("merge rewrote SimNS: %d", evs[1].SimNS)
	}
}

// mergeByCopy is Merge as it was before fragments were read in place: the
// fragment's events copied out, then pushed one by one.
func mergeByCopy(t, frag *Tracer) {
	evs, dropped := frag.Events(), frag.Dropped()
	t.mu.Lock()
	for _, ev := range evs {
		t.push(ev)
	}
	t.ring.dropped += dropped
	t.mu.Unlock()
}

// TestTracerMergeBatchMatchesCopy: one Merge over a batch of fragments —
// empty, nil, part-full and wrapped ones, into a tracer with room for all
// of them and into one whose ring bound bites mid-batch — leaves the
// events, sequence numbers, drop count and fingerprint that merging copies
// one fragment at a time did.
func TestTracerMergeBatchMatchesCopy(t *testing.T) {
	frags := func() []*Tracer {
		out := []*Tracer{NewTracer(8), nil, NewTracer(4), NewTracer(3), NewTracer(64)}
		for f, n := range map[int]int{2: 3, 3: 8, 4: 40} { // fragment 3 wraps, twice
			for i := 0; i < n; i++ {
				out[f].Emit(StageProbe, "trace", fmt.Sprintf("f%d.%d", f, i), int64(i), KV("hops", i))
			}
		}
		return out
	}
	for _, limit := range []int{0, 16} {
		got, want := NewTracer(limit), NewTracer(limit)
		for _, tr := range []*Tracer{got, want} {
			tr.Emit(StageProbe, "target", "AS1", 0)
		}
		got.Merge(frags()...)
		for _, f := range frags() {
			if f != nil {
				mergeByCopy(want, f)
			}
		}
		if !reflect.DeepEqual(got.Events(), want.Events()) || got.Dropped() != want.Dropped() {
			t.Errorf("limit %d: batch merge kept %d events (%d dropped), copy merge %d (%d dropped)",
				limit, got.Len(), got.Dropped(), want.Len(), want.Dropped())
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("limit %d: fingerprints differ", limit)
		}
	}
}

// TestTracerMergeReservesOnce pins what the batch form is for: folding a
// batch into a tracer allocates its buffer once, however many fragments
// and events there are, and never more room than the ring bound.
func TestTracerMergeReservesOnce(t *testing.T) {
	var frags []*Tracer
	for f := 0; f < 50; f++ {
		fr := NewTracer(0)
		for i := 0; i < 40; i++ {
			fr.Emit(StageProbe, "trace", "d", int64(i))
		}
		frags = append(frags, fr)
	}
	allocs := testing.AllocsPerRun(10, func() { NewTracer(0).Merge(frags...) })
	// The tracer and its buffer; the race detector adds one. Growing by
	// append, with a copy of every fragment, took 65.
	if allocs > 3 {
		t.Errorf("merging 50 fragments of 40 events allocates %.0f times, want at most 3", allocs)
	}
	small := NewTracer(100)
	small.Merge(frags...)
	if c := cap(small.ring.buf); small.Len() != 100 || c >= 200 || small.Dropped() != 1900 {
		t.Errorf("bounded merge: len %d cap %d dropped %d, want 100, about 100, 1900", small.Len(), c, small.Dropped())
	}
}

// TestTracerMergeWhileEmitting: a fragment is read in place, so a Merge
// racing emitters on both the fragment and the target must still see each
// fragment event at most once and keep sequence numbers unique. Run under
// -race by CI's chaos job.
func TestTracerMergeWhileEmitting(t *testing.T) {
	dst, frag := NewTracer(0), NewTracer(0)
	var wg sync.WaitGroup
	for _, tr := range []*Tracer{dst, frag} {
		wg.Add(1)
		go func(tr *Tracer) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(StageProbe, "trace", "x", int64(i))
			}
		}(tr)
	}
	dst.Merge(frag)
	wg.Wait()
	dst.Merge(frag) // everything emitted by now, some of it for the second time
	seen := make(map[uint64]bool)
	for _, ev := range dst.Events() {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	if n := dst.Len(); n < 1000 || n > 1500 {
		t.Fatalf("merged tracer holds %d events, want its own 500, the fragment's 500, and at most 500 merged twice", n)
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
	tr := NewTracer(8)
	tr.Emit(StageCore, "decision", "10.0.0.1", 0, KV("owner", "AS7"), Attr{K: "~ipids", V: "9,9"})
	tr.Emit(StageProbe, "stopset-hit", "1.2.3.4", 42)
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
	mk := func(ids string) *Tracer {
		tr := NewTracer(4)
		tr.Emit(StageAlias, "ally", "a|b", 5,
			KV("verdict", "alias"), Attr{K: "~ipids", V: ids})
		return tr
	}
	if mk("1,2,3").Fingerprint() != mk("7,8,9").Fingerprint() {
		t.Fatal("volatile attr leaked into fingerprint")
	}
	// Non-volatile differences must change it.
	other := NewTracer(4)
	other.Emit(StageAlias, "ally", "a|b", 5,
		KV("verdict", "not-alias"), Attr{K: "~ipids", V: "1,2,3"})
	if mk("1,2,3").Fingerprint() == other.Fingerprint() {
		t.Fatal("fingerprint ignored a verdict change")
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Emit(StageProbe, "trace", "x", int64(i))
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

func TestTracerSummary(t *testing.T) {
	tr := NewTracer(2)
	tr.Emit(StageProbe, "trace", "a", 0)
	tr.Emit(StageProbe, "trace", "b", 0)
	tr.Emit(StageCore, "decision", "c", 0)
	s := tr.Summary()
	for _, want := range []string{"probe.trace", "core.decision", "(dropped)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Summary missing %q:\n%s", want, s)
		}
	}
	if tr.CountByKind()["probe.trace"] != 1 { // one overwritten by the ring
		t.Fatalf("CountByKind = %v", tr.CountByKind())
	}
}
