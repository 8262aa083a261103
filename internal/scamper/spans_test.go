package scamper

import (
	"reflect"
	"strconv"
	"testing"

	"bdrmap/internal/obs"
)

// TestTargetSpansFromSlots: the "target" spans the driver writes from its
// per-target slots after the barrier are the same records whatever the
// worker count — IDs in target order right after the probe stage span's,
// parented under it, attrs blocks, traces, then lost; the probe stage
// carries their summed simulated time, and with spans off the fold builds
// nothing. The chaos kill test loses targets to a dead session end to end.
func TestTargetSpansFromSlots(t *testing.T) {
	run := func(workers int) []obs.SpanRecord {
		n, e, view, hosts := setup(t, 1)
		targets := Targets(view, hosts)
		local := LocalProber{E: e, VP: n.VPs[0]}
		d := &Driver{View: view, Prober: local, HostASNs: hosts, Cfg: Config{Workers: workers}, Spans: obs.NewSpanLog(0)}
		vp := d.Spans.Begin(0, "vp", local.Name())
		d.SpanParent = vp.ID()
		ds := d.Run()

		var stage obs.SpanRecord
		var got []obs.SpanRecord
		for _, r := range d.Spans.Records() {
			switch {
			case r.Name == "target":
				r.WallNS = 0
				got = append(got, r)
			case r.Name == "stage" && r.Detail == "probe":
				stage = r
			}
		}
		if len(got) != len(targets) {
			t.Fatalf("workers=%d: %d target spans for %d targets", workers, len(got), len(targets))
		}
		traces := make(map[string]int) // target AS → traces in the dataset
		for _, tr := range ds.Traces {
			traces[tr.TargetAS.String()]++
		}
		var simNS int64
		for i, r := range got {
			want := obs.SpanRecord{
				ID: stage.ID + obs.SpanID(i+1), Parent: stage.ID, Name: "target", Detail: targets[i].AS.String(),
				SimNS: r.SimNS,
				Attrs: []obs.Attr{
					{K: "blocks", V: strconv.Itoa(len(targets[i].Blocks))},
					{K: "traces", V: strconv.Itoa(traces[targets[i].AS.String()])},
				},
			}
			if !reflect.DeepEqual(r, want) {
				t.Errorf("workers=%d: target span %d = %+v\nwant %+v", workers, i, r, want)
			}
			simNS += r.SimNS
		}
		if stage.Parent != vp.ID() || stage.SimNS != simNS || simNS == 0 {
			t.Errorf("workers=%d: probe stage %+v, its targets' sim time sums to %d", workers, stage, simNS)
		}
		return got
	}
	if one, four := run(1), run(4); !reflect.DeepEqual(one, four) {
		t.Errorf("target spans differ between 1 and 4 workers")
	}

	// The fold itself: a record per slot carrying the slot's durations, and
	// no records when spans are off.
	targets := []Target{{AS: 64500, Blocks: make([]Block, 3)}, {AS: 64501, Blocks: make([]Block, 1)}}
	outs := []targetOut{
		{recs: make([]TraceRecord, 2), simNS: 7, wallNS: 70},
		{simNS: 9, wallNS: 90, lost: true},
	}
	if recs := (&Driver{}).targetSpans(targets, outs); recs != nil {
		t.Errorf("spans off, fold built %d records", len(recs))
	}
	recs := (&Driver{Spans: obs.NewSpanLog(0)}).targetSpans(targets, outs)
	want := []obs.SpanRecord{
		{ID: 1, Name: "target", Detail: "AS64500", SimNS: 7, WallNS: 70,
			Attrs: []obs.Attr{{K: "blocks", V: "3"}, {K: "traces", V: "2"}}},
		{ID: 2, Name: "target", Detail: "AS64501", SimNS: 9, WallNS: 90,
			Attrs: []obs.Attr{{K: "blocks", V: "1"}, {K: "traces", V: "0"}, {K: "lost", V: "true"}}},
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("fold = %+v\nwant  %+v", recs, want)
	}
}
