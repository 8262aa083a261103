package obs

import (
	"bytes"
	"testing"
	"time"
	"unsafe"
)

func TestSpanLogBeginEnd(t *testing.T) {
	sl := NewSpanLog(0)
	run := sl.Begin(0, "run", "seed 1")
	vp := sl.Begin(run.ID(), "vp", "vp01")
	vp.AddSim(3 * time.Millisecond)
	vp.SetAttr("targets", 7)
	if sl.ActiveCount() != 2 || sl.Len() != 0 {
		t.Fatalf("active=%d len=%d, want 2 active 0 completed", sl.ActiveCount(), sl.Len())
	}
	vp.End()
	vp.End() // idempotent: must not record twice
	run.End()
	recs := sl.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// Completion order: the child ends first but keeps its earlier ID.
	if recs[0].Name != "vp" || recs[0].ID != 2 || recs[0].Parent != 1 {
		t.Errorf("child record = %+v", recs[0])
	}
	if recs[0].SimNS != int64(3*time.Millisecond) || recs[0].Attr("targets") != "7" {
		t.Errorf("child sim/attrs = %+v", recs[0])
	}
	if recs[1].Name != "run" || recs[1].ID != 1 || recs[1].Parent != 0 {
		t.Errorf("root record = %+v", recs[1])
	}
	if sl.ActiveCount() != 0 {
		t.Errorf("ActiveCount = %d after both ended", sl.ActiveCount())
	}
}

func TestSpanLogNilSafe(t *testing.T) {
	var sl *SpanLog
	if sl.Enabled() {
		t.Fatal("nil log reports Enabled")
	}
	sp := sl.Begin(0, "x", "")
	sp.AddSim(time.Second)
	sp.SetAttr("k", "v")
	sp.End()
	if sp.ID() != 0 {
		t.Errorf("nil span ID = %d", sp.ID())
	}
	if sl.Records() != nil || sl.Active() != nil || sl.Len() != 0 || sl.Dropped() != 0 {
		t.Error("nil log retained state")
	}
	sl.Merge(NewSpanLog(0), 0)
	sl.MergeRecords([]SpanRecord{{ID: 1}}, 0)
}

func TestSpanLogRingDrop(t *testing.T) {
	sl := NewSpanLog(3)
	for i := 0; i < 5; i++ {
		sl.Begin(0, "s", string(rune('a'+i))).End()
	}
	recs := sl.Records()
	if len(recs) != 3 || sl.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3 retained 2 dropped", len(recs), sl.Dropped())
	}
	// Flight-recorder: the oldest spans went, order is preserved.
	if recs[0].Detail != "c" || recs[2].Detail != "e" {
		t.Errorf("retained %q..%q, want c..e", recs[0].Detail, recs[2].Detail)
	}
}

func TestSpanLogMergeRemap(t *testing.T) {
	sl := NewSpanLog(0)
	host := sl.Begin(0, "stage", "probe") // takes ID 1
	frag := NewSpanLog(0)
	a := frag.Begin(0, "target", "AS1") // frag ID 1
	b := frag.Begin(a.ID(), "probe", "hop")
	b.End()
	a.End()
	sl.Merge(frag, host.ID())
	host.End()

	recs := sl.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	// Fresh IDs in original Begin order: target (frag 1) → 2, probe (frag 2) → 3.
	if byName["target"].ID != 2 || byName["probe"].ID != 3 {
		t.Errorf("remapped IDs: target=%d probe=%d, want 2,3", byName["target"].ID, byName["probe"].ID)
	}
	// Intra-batch parent rewritten; batch root attached under merge parent.
	if byName["probe"].Parent != byName["target"].ID {
		t.Errorf("probe parent = %d, want %d", byName["probe"].Parent, byName["target"].ID)
	}
	if byName["target"].Parent != host.ID() {
		t.Errorf("target parent = %d, want %d", byName["target"].Parent, host.ID())
	}
}

// TestSpanLogMergeWrappedFragment: a fragment whose ring wrapped is merged
// oldest first with its drop count carried, exactly as an unwrapped one,
// and the merge moves its records and drops out of the fragment.
func TestSpanLogMergeWrappedFragment(t *testing.T) {
	frag := NewSpanLog(3)
	for i := 0; i < 5; i++ {
		frag.Begin(0, "target", string(rune('a'+i))).End()
	}
	sl := NewSpanLog(0)
	host := sl.Begin(0, "stage", "probe")
	sl.Merge(frag, host.ID())
	recs := sl.Records()
	if len(recs) != 3 || sl.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3 merged and 2 dropped carried over", len(recs), sl.Dropped())
	}
	for i, want := range []string{"c", "d", "e"} {
		if recs[i].Detail != want || recs[i].ID != SpanID(2+i) || recs[i].Parent != host.ID() {
			t.Errorf("record %d = %+v, want detail %q id %d under %d", i, recs[i], want, 2+i, host.ID())
		}
	}
	if frag.Len() != 0 || frag.Dropped() != 0 {
		t.Errorf("merge left %d records and %d drops in the fragment", frag.Len(), frag.Dropped())
	}
}

// buildSpanFixture returns a small tree with attrs, volatile attrs, sim
// and wall durations — enough shape to exercise every exporter branch.
func buildSpanFixture() []SpanRecord {
	sl := NewSpanLog(0)
	run := sl.Begin(0, "run", "seed 1")
	vp := sl.Begin(run.ID(), "vp", "vp01")
	st := sl.Begin(vp.ID(), "stage", "probe")
	st.AddSim(5 * time.Millisecond)
	st.SetAttr("targets", 3)
	st.SetAttr("~tmp", "volatile")
	st.End()
	vp.End()
	run.End()
	return sl.Records()
}

func TestSpanJSONLFixedPoint(t *testing.T) {
	recs := buildSpanFixture()
	var b1 bytes.Buffer
	if err := WriteSpanJSONL(&b1, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpanJSONL(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := WriteSpanJSONL(&b2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("JSONL export→import→export not a fixed point:\n%s\nvs\n%s", b1.Bytes(), b2.Bytes())
	}
}

func TestSpanChromeFixedPoint(t *testing.T) {
	recs := buildSpanFixture()
	var b1 bytes.Buffer
	if err := WriteChromeTrace(&b1, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadChromeTrace(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("import recovered %d spans, want %d", len(got), len(recs))
	}
	var b2 bytes.Buffer
	if err := WriteChromeTrace(&b2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("Chrome export→import→export not byte-stable")
	}
	// The fingerprint survives the round trip too (args.span is lossless).
	if FingerprintSpans(got) != FingerprintSpans(recs) {
		t.Error("fingerprint changed across Chrome round trip")
	}
}

func TestSpanChromeLayout(t *testing.T) {
	// A parent with SimNS 0 and two children of 2ms and 3ms must span 5ms,
	// children back to back in ID order.
	recs := []SpanRecord{
		{ID: 1, Name: "vp", Detail: "v"},
		{ID: 2, Parent: 1, Name: "stage", Detail: "probe", SimNS: 2e6},
		{ID: 3, Parent: 1, Name: "stage", Detail: "alias", SimNS: 3e6},
	}
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, recs); err != nil {
		t.Fatal(err)
	}
	s := b.String()
	for _, want := range []string{
		`"name": "vp v"`, `"dur": 5000`, // parent = sum of children, µs
		`"ts": 2000`, `"dur": 3000`, // second child starts after first
	} {
		if !bytes.Contains(b.Bytes(), []byte(want)) {
			t.Errorf("chrome output missing %s:\n%s", want, s)
		}
	}
}

func TestSpanFingerprintExclusions(t *testing.T) {
	base := []SpanRecord{{ID: 1, Name: "run", SimNS: 10, Attrs: []Attr{KV("k", 1)}}}
	fp := FingerprintSpans(base)

	// Wall-clock is excluded.
	wall := []SpanRecord{{ID: 1, Name: "run", SimNS: 10, WallNS: 999, Attrs: []Attr{KV("k", 1)}}}
	if FingerprintSpans(wall) != fp {
		t.Error("WallNS changed the fingerprint")
	}
	// Volatile attrs are excluded.
	vol := []SpanRecord{{ID: 1, Name: "run", SimNS: 10, Attrs: []Attr{KV("k", 1), KV("~retries", 3)}}}
	if FingerprintSpans(vol) != fp {
		t.Error("volatile attr changed the fingerprint")
	}
	// Everything deterministic is included.
	for _, alt := range []SpanRecord{
		{ID: 2, Name: "run", SimNS: 10, Attrs: []Attr{KV("k", 1)}},
		{ID: 1, Parent: 1, Name: "run", SimNS: 10, Attrs: []Attr{KV("k", 1)}},
		{ID: 1, Name: "vp", SimNS: 10, Attrs: []Attr{KV("k", 1)}},
		{ID: 1, Name: "run", SimNS: 11, Attrs: []Attr{KV("k", 1)}},
		{ID: 1, Name: "run", SimNS: 10, Attrs: []Attr{KV("k", 2)}},
	} {
		if FingerprintSpans([]SpanRecord{alt}) == fp {
			t.Errorf("fingerprint ignored change in %+v", alt)
		}
	}
	// Record order does not matter; ID order is canonical.
	two := []SpanRecord{{ID: 1, Name: "a"}, {ID: 2, Name: "b"}}
	rev := []SpanRecord{{ID: 2, Name: "b"}, {ID: 1, Name: "a"}}
	if FingerprintSpans(two) != FingerprintSpans(rev) {
		t.Error("fingerprint depends on slice order")
	}
}

// TestSpanLogMergeBatchWrapsRing: a batch larger than the ring's remaining
// room is adopted where it lies, not copied into a ring grown for it, and
// what wraps is counted.
func TestSpanLogMergeBatchWrapsRing(t *testing.T) {
	sl := NewSpanLog(4)
	sl.Begin(0, "stage", "a").End()
	sl.Begin(0, "stage", "b").End()
	batch := make([]SpanRecord, 5)
	for i := range batch {
		batch[i] = SpanRecord{ID: SpanID(i + 1), Name: "target", Detail: string(rune('c' + i))}
	}
	sl.MergeRecords(batch, 1)
	// The batch is the ring's one segment: the two records before it were
	// dropped, and the ring made no room for the batch.
	if len(sl.ring.segs) != 1 || unsafe.SliceData(sl.ring.segs[0]) != &batch[0] {
		t.Errorf("the ring holds %d segments, not the batch alone", len(sl.ring.segs))
	}
	recs := sl.Records()
	if len(recs) != 4 || sl.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d, want 4 retained and 3 dropped", len(recs), sl.Dropped())
	}
	for i, want := range []string{"d", "e", "f", "g"} {
		if recs[i].Detail != want || recs[i].ID != SpanID(4+i) || recs[i].Parent != 1 {
			t.Errorf("record %d = %+v, want detail %q id %d under 1", i, recs[i], want, 4+i)
		}
	}
}
