package obs

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestMergeRecordsMatchesOracle: assigning new span IDs by rank among the
// batch's sorted distinct IDs, and reading a fragment's ring in place,
// merges exactly what the map-based remap over a copied-out fragment did —
// the same records in the same order with the same IDs and parents, the
// same drop count and the same next ID — on contiguous batches, gapped
// ones (a wrapped fragment), batches with duplicate IDs and batches whose
// parents lie outside them, into logs that wrap as they take the batch.
func TestMergeRecordsMatchesOracle(t *testing.T) {
	// host returns a log of ring limit limit holding a span of its own
	// (ID 2) under an open one (ID 1).
	host := func(limit int) *SpanLog {
		sl := NewSpanLog(limit)
		sl.nextID = 2
		sl.ring.push(SpanRecord{ID: 2, Parent: 1, Name: "vp", Detail: "a"})
		return sl
	}
	same := func(t *testing.T, got, want *SpanLog) {
		t.Helper()
		if g, w := got.Records(), want.Records(); !reflect.DeepEqual(g, w) {
			t.Fatalf("merged records\n%+v\nthe map-based merge gives\n%+v", g, w)
		}
		if g, w := got.Dropped(), want.Dropped(); g != w {
			t.Fatalf("dropped %d, the map-based merge %d", g, w)
		}
		if g, w := got.Begin(0, "next", "").ID(), want.Begin(0, "next", "").ID(); g != w {
			t.Fatalf("next span ID %d, the map-based merge %d", g, w)
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
				got, want := host(limit), host(limit)
				got.MergeRecords(batch, 1)
				want.mergeRecordsOracle(batch, 1)
				same(t, got, want)
			})
		}
	}

	// Fragments, wrapped and not, with nested and out-of-ring parents.
	rng := rand.New(rand.NewSource(1))
	for trial := range 200 {
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
		limit := rng.Intn(3) * 8 // 0 (the default cap), 8 or 16
		got, want := host(limit), host(limit)
		got.Merge(frag, 1)
		want.mergeOracle(frag, 1)
		t.Run(fmt.Sprintf("fragment %d", trial), func(t *testing.T) { same(t, got, want) })
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
