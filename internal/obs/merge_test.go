package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"
)

// TestMergeRecordsMatchesOracle: assigning new span IDs by rank among the
// batch's sorted distinct IDs, rewriting them where the records lie and
// adopting the batch or the fragment's segments into a segmented ring,
// merges exactly what the map-based remap over copied-out records did into
// a flat ring — the same records in the same order with the same IDs and
// parents, the same drop count and the same next ID — on contiguous
// batches, gapped ones (a wrapped fragment), batches with duplicate IDs and
// batches whose parents lie outside them, into logs that wrap as they take
// the batch. An adopted batch stays where its producer wrote it, and a
// merged fragment is left empty. Random sequences of pushes, batches and
// fragments into small rings hold the segments to the flat ring as they
// wrap again and again.
func TestMergeRecordsMatchesOracle(t *testing.T) {
	// host returns a log of ring limit limit holding a span of its own
	// (ID 2) under an open one (ID 1), and the oracle's copy of it.
	host := func(limit int) (*SpanLog, *oracleLog) {
		sl, o := NewSpanLog(limit), newOracleLog(limit)
		sl.nextID, o.nextID = 2, 2
		rec := SpanRecord{ID: 2, Parent: 1, Name: "vp", Detail: "a"}
		sl.ring.push(rec)
		o.ring.push(rec)
		return sl, o
	}
	same := func(t *testing.T, got *SpanLog, want *oracleLog) {
		t.Helper()
		g, w := got.Records(), want.ring.items()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("merged records\n%+v\nthe map-based merge gives\n%+v", g, w)
		}
		if g, w := got.Dropped(), want.ring.dropped; g != w {
			t.Fatalf("dropped %d, the map-based merge %d", g, w)
		}
		if g, w := got.nextID, want.nextID; g != w {
			t.Fatalf("next span ID %d, the map-based merge %d", g+1, w+1)
		}
		held := -got.ring.head
		for _, seg := range got.ring.segs {
			held += len(seg)
		}
		if held != got.Len() || got.Len() > got.ring.limit {
			t.Fatalf("the ring counts %d records and its segments hold %d, limit %d", got.Len(), held, got.ring.limit)
		}
	}
	adopted := func(t *testing.T, sl *SpanLog, batch []SpanRecord) {
		t.Helper()
		for _, seg := range sl.ring.segs {
			if unsafe.SliceData(seg) == unsafe.SliceData(batch) {
				return
			}
		}
		t.Fatal("the merged batch was copied, not adopted where it lies")
	}
	moved := func(t *testing.T, frag *SpanLog) {
		t.Helper()
		if frag.Len() != 0 || frag.Dropped() != 0 {
			t.Fatalf("the merged fragment still holds %d records and %d drops", frag.Len(), frag.Dropped())
		}
	}
	batches := map[string][]SpanRecord{
		"contiguous": {{ID: 1, Name: "target"}, {ID: 2, Name: "target"}, {ID: 3, Parent: 1, Name: "hop"}},
		"gapped":     {{ID: 9, Name: "a"}, {ID: 4, Parent: 9, Name: "b"}, {ID: 17, Parent: 4, Name: "c"}},
		"duplicates": {{ID: 5, Name: "a"}, {ID: 5, Name: "a again"}, {ID: 2, Parent: 5, Name: "b"}, {ID: 2, Name: "b again"}},
		"outside":    {{ID: 3, Parent: 40, Name: "a"}, {ID: 6, Parent: 3, Name: "b"}, {ID: 7, Parent: 1, Name: "c"}},
		"zero ID":    {{ID: 0, Name: "a"}, {ID: 2, Name: "b"}},
	}
	for name, batch := range batches {
		for _, limit := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/limit %d", name, limit), func(t *testing.T) {
				got, want := host(limit)
				handed := slices.Clone(batch)
				got.MergeRecords(handed, 1)
				want.mergeRecords(batch, 1)
				same(t, got, want)
				adopted(t, got, handed)
			})
		}
	}

	// fragment returns a log of ring limit 1…12 holding up to 30 spans,
	// nested and not, ended in random order, wrapped or not.
	fragment := func(rng *rand.Rand) *SpanLog {
		frag := NewSpanLog(1 + rng.Intn(12))
		var open []*OpenSpan
		for range rng.Intn(30) {
			var parent SpanID
			if len(open) > 0 && rng.Intn(3) > 0 {
				parent = open[rng.Intn(len(open))].ID()
			}
			open = append(open, frag.Begin(parent, "s", fmt.Sprint(len(open))))
			if rng.Intn(2) == 0 {
				k := rng.Intn(len(open))
				open[k].End()
				open = append(open[:k], open[k+1:]...)
			}
		}
		for _, o := range open {
			o.End()
		}
		return frag
	}

	// Fragments, wrapped and not, with nested and out-of-ring parents.
	rng := rand.New(rand.NewSource(1))
	for trial := range 200 {
		frag := fragment(rng)
		limit := rng.Intn(3) * 8 // 0 (the default cap), 8 or 16
		got, want := host(limit)
		want.merge(frag, 1)
		got.Merge(frag, 1)
		t.Run(fmt.Sprintf("fragment %d", trial), func(t *testing.T) {
			same(t, got, want)
			moved(t, frag)
		})
	}

	// Sequences into rings of 1, 3, 8 and 16 records: pushed spans, adopted
	// batches and moved fragments, held to the oracle after every step.
	for trial := range 100 {
		limit := []int{1, 3, 8, 16}[rng.Intn(4)]
		got, want := host(limit)
		t.Run(fmt.Sprintf("wrap %d", trial), func(t *testing.T) {
			for step := range 40 {
				switch rng.Intn(3) {
				case 0:
					rec := SpanRecord{Name: "pushed", Detail: fmt.Sprint(step)}
					got.Begin(0, rec.Name, rec.Detail).End()
					// The oracle takes the wall time the clock gave the
					// span just ended, the newest record of any ring.
					recs := got.Records()
					rec.WallNS = recs[len(recs)-1].WallNS
					want.end(rec)
				case 1:
					batch := make([]SpanRecord, rng.Intn(13))
					for i := range batch {
						batch[i] = SpanRecord{ID: SpanID(1 + rng.Intn(10)), Parent: SpanID(rng.Intn(11)), Name: "batch", Detail: fmt.Sprint(step, i)}
					}
					handed := slices.Clone(batch)
					got.MergeRecords(handed, 1)
					want.mergeRecords(batch, 1)
				default:
					frag := fragment(rng)
					want.merge(frag, 2)
					got.Merge(frag, 2)
					moved(t, frag)
				}
				same(t, got, want)
			}
		})
	}
}

// TestMergeBesideWriters: Merge reads a fragment's ring in place under the
// fragment's lock, so spans may go on ending in the fragment, and readers
// may read the log merged into, while it merges (run it with -race).
func TestMergeBesideWriters(t *testing.T) {
	sl, frag := NewSpanLog(64), NewSpanLog(16)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range 500 {
			frag.Begin(0, "target", "").End()
		}
	}()
	go func() {
		defer wg.Done()
		for range 200 {
			sl.Records()
			sl.Active()
		}
	}()
	for range 100 {
		sl.Merge(frag, 0)
	}
	wg.Wait()
	sl.Merge(frag, 0)
	recs := sl.Records()
	if len(recs) < 16 {
		t.Fatalf("%d records retained, want at least the full fragment's 16", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].ID <= recs[i-1].ID {
			t.Fatalf("record %d has ID %d after %d: a fragment ended in Begin order merges in it", i, recs[i].ID, recs[i-1].ID)
		}
	}
}
