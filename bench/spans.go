package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"bdrmap/internal/obs"
)

// spanRec is one span of the bench's own trace: recorded around calls
// into a layer's public functions, or rebuilt from the program's public
// span log. Times are ns since the tracer was created.
type spanRec struct {
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how end-to-end runs pay nothing for it.
type tracer struct {
	workload string
	t0       time.Time

	mu   sync.Mutex
	recs []spanRec
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// now is ns since the tracer was created (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// add records a completed span and returns its id (0 on a nil tracer).
func (t *tracer) add(rep, parent int, name string, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.recs) + 1
	t.recs = append(t.recs, spanRec{t.workload, rep, id, parent, name, start, end})
	return id
}

// openSpan is a span whose end is not yet known.
type openSpan struct {
	t  *tracer
	id int
}

// begin opens a span; the id is usable as a parent at once.
func (t *tracer) begin(rep, parent int, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	now := t.now()
	return openSpan{t, t.add(rep, parent, name, now, now)}
}

func (s openSpan) end() {
	if s.t == nil {
		return
	}
	now := s.t.now()
	s.t.mu.Lock()
	s.t.recs[s.id-1].EndNS = now
	s.t.mu.Unlock()
}

// graft rebuilds the program's own span subtree rooted at the records
// whose parent is progParent, under the bench span parent. The program
// records durations, not start times, so children are laid end to end
// from their parent's start — exact for the one-worker fleets measured
// here. Per-target spans are skipped: tens of thousands of them say
// nothing a stage span does not.
func (t *tracer) graft(rep, parent int, start int64, recs []obs.SpanRecord, progParent obs.SpanID) {
	if t == nil {
		return
	}
	kids := make(map[obs.SpanID][]obs.SpanRecord)
	for _, r := range recs {
		if r.Name != "target" {
			kids[r.Parent] = append(kids[r.Parent], r)
		}
	}
	for _, k := range kids {
		// Completion order → begin order, which is the order they ran in.
		sort.Slice(k, func(i, j int) bool { return k[i].ID < k[j].ID })
	}
	var place func(parent int, start int64, of obs.SpanID)
	place = func(parent int, start int64, of obs.SpanID) {
		for _, r := range kids[of] {
			id := t.add(rep, parent, layerSpanName(r), start, start+r.WallNS)
			place(id, start, r.ID)
			start += r.WallNS
		}
	}
	place(parent, start, progParent)
}

// layerSpanName maps a program span to the layer (package) it times.
func layerSpanName(r obs.SpanRecord) string {
	switch r.Name {
	case "round":
		return "mapdb.round"
	case "fleet":
		return "fleet.run"
	case "vp":
		return "scamper.run"
	case "stage":
		switch r.Detail {
		case "probe":
			return "probe.stage"
		case "alias":
			return "alias.stage"
		case "infer":
			return "core.infer"
		case "compile":
			return "mapdb.compile"
		case "publish":
			return "mapdb.publish"
		}
	}
	return r.Name + "." + r.Detail
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover. A child that sticks
// out of its parent is clipped to it, so self times sum to the root
// durations; roots is that sum and rootSelf the part of it no span below
// a root accounts for.
func selfTimes(recs []spanRec) (self map[string]int64, roots, rootSelf int64) {
	covered := make(map[int]int64, len(recs))
	byID := make(map[int]spanRec, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	for _, r := range recs {
		p, ok := byID[r.Parent]
		if !ok {
			roots += r.EndNS - r.StartNS
			continue
		}
		lo, hi := max(r.StartNS, p.StartNS), min(r.EndNS, p.EndNS)
		if hi > lo {
			covered[r.Parent] += hi - lo
		}
	}
	self = make(map[string]int64)
	for _, r := range recs {
		d := r.EndNS - r.StartNS - covered[r.ID]
		if d < 0 {
			d = 0
		}
		self[r.Name] += d
		if _, ok := byID[r.Parent]; !ok {
			rootSelf += d
		}
	}
	return self, roots, rootSelf
}

func (t *tracer) snapshot() []spanRec {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.recs...)
}

func writeSpansJSONL(w io.Writer, recs []spanRec) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
