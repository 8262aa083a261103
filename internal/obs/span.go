package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"
)

// This file is the duration half of the observability layer: where the
// Tracer answers "why did bdrmap decide X" with point events, the SpanLog
// answers "where did the run's time go" with a hierarchical timeline —
// run → round → vp → stage → target, plus the mapdb compile/publish spans
// and the remote agents' session spans. Every span carries its parent's
// ID, a simulated-time duration, and ordered attributes; like the trace
// stream, the deterministic portion (everything except wall-clock) is a
// pure function of (profile, seed, cfg) regardless of worker count or
// healing fault schedule, so span trees fingerprint and diff exactly as
// traces do.

// SpanID identifies one span within a SpanLog; zero means "no span" (the
// parent of a root span, or the ID of a nil OpenSpan).
type SpanID uint64

// SpanRecord is one completed span.
type SpanRecord struct {
	// ID is assigned at Begin time under the log's lock, so for
	// single-threaded control flow (and for fragments merged in a
	// deterministic order) it is reproducible across runs.
	ID SpanID `json:"id"`
	// Parent is the enclosing span (0 for roots).
	Parent SpanID `json:"parent,omitempty"`
	// Name is the hierarchy level: "run", "round", "vp", "stage",
	// "target", "agent-session".
	Name string `json:"name"`
	// Detail narrows the name: the VP name, the stage ("probe", "alias",
	// "infer", "mapdb.compile", …), or the target AS.
	Detail string `json:"detail,omitempty"`
	// SimNS is the span's simulated-time duration on the canonical
	// serialized timeline. For spans whose children carry the time (run,
	// round, vp) it is zero; exporters lay children out sequentially in
	// ID order and derive the effective duration.
	SimNS int64 `json:"sim_ns"`
	// WallNS is the wall-clock duration — faithfully exported but, like
	// stage wall timings, excluded from Fingerprint.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Attrs is the ordered attribute list; '~'-prefixed keys are volatile
	// (excluded from Fingerprint), exactly as on trace events.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attr ("" when absent), finding
// volatile attrs under their unmarked name too.
func (r SpanRecord) Attr(k string) string {
	for _, a := range r.Attrs {
		if a.K == k || a.Name() == k {
			return a.V
		}
	}
	return ""
}

// OpenSpan is one in-flight span created by SpanLog.Begin. It is distinct
// from the stage-timer Span (which aggregates totals per stage name);
// an OpenSpan becomes one SpanRecord on End. A nil OpenSpan (from a nil
// SpanLog) is a no-op. An OpenSpan's fields are guarded by its log's
// mutex so /v1/status can read in-flight spans concurrently.
type OpenSpan struct {
	sl    *SpanLog
	rec   SpanRecord
	start time.Time
	done  bool
}

// ID returns the span's ID (0 on nil).
func (o *OpenSpan) ID() SpanID {
	if o == nil {
		return 0
	}
	return o.rec.ID
}

// AddSim attributes simulated measurement time to the span.
func (o *OpenSpan) AddSim(d time.Duration) {
	if o == nil {
		return
	}
	o.sl.mu.Lock()
	o.rec.SimNS += int64(d)
	o.sl.mu.Unlock()
}

// SetAttr appends one attribute (fmt-style default formatting, as KV).
func (o *OpenSpan) SetAttr(k string, v any) {
	if o == nil {
		return
	}
	a := KV(k, v)
	o.sl.mu.Lock()
	o.rec.Attrs = append(o.rec.Attrs, a)
	o.sl.mu.Unlock()
}

// End completes the span, recording it into the log. Idempotent: a span
// ended by a deferred cleanup after an explicit End records only once.
func (o *OpenSpan) End() {
	if o == nil {
		return
	}
	o.sl.mu.Lock()
	if !o.done {
		o.done = true
		o.rec.WallNS = int64(time.Since(o.start))
		delete(o.sl.open, o.rec.ID)
		o.sl.ring.push(o.rec)
	}
	o.sl.mu.Unlock()
}

// ring is the bounded flight-recorder store under SpanLog: it holds at
// most limit records, oldest first, and once full each record added drops
// the oldest and counts it. The records lie in segments that never move:
// runs the ring grew for records pushed one at a time, and batches it
// adopted whole, so a batch is written once, where its producer wrote it.
// It is not synchronised; its owner's mutex guards it.
type ring[T any] struct {
	limit   int
	dropped uint64
	n       int   // records held
	segs    [][]T // the records from segs[0][head] on; only the last segment has room to grow
	head    int   // records of segs[0] already dropped
	spare   []T   // a segment drops emptied, reused for the next pushes
	made    int   // the length of the last segment push made
}

// Pushed records go to segments the ring makes, the first minSeg long and
// each next one twice the last, up to maxSeg and never past the limit.
const (
	minSeg = 16
	maxSeg = 1024
)

func (r *ring[T]) push(v T) {
	if k := len(r.segs) - 1; k >= 0 && len(r.segs[k]) < cap(r.segs[k]) {
		r.segs[k] = append(r.segs[k], v)
	} else {
		seg := r.spare
		if r.spare = nil; cap(seg) == 0 {
			r.made = min(max(2*r.made, minSeg), maxSeg, r.limit)
			seg = make([]T, 0, r.made)
		}
		r.segs = append(r.segs, append(seg, v))
	}
	r.n++
	r.drop()
}

// adopt appends seg's records as a segment of their own. The ring owns
// seg from then on and never appends to it.
func (r *ring[T]) adopt(seg []T) {
	if len(seg) == 0 {
		return
	}
	r.segs = append(r.segs, seg[:len(seg):len(seg)])
	r.n += len(seg)
	r.drop()
}

// drop discards the oldest records past limit, counting them.
func (r *ring[T]) drop() {
	for r.n > r.limit {
		seg := r.segs[0]
		k := min(len(seg)-r.head, r.n-r.limit)
		clear(seg[r.head : r.head+k]) // let the collector have what they point to
		r.head += k
		r.n -= k
		r.dropped += uint64(k)
		if r.head == len(seg) && len(r.segs) > 1 {
			r.spare, r.head = seg[:0], 0
			r.segs[0] = nil
			r.segs = r.segs[1:]
		}
	}
}

// take returns the retained records' segments, oldest first, and empties
// the ring; the caller owns them. The drop count is left as it was.
func (r *ring[T]) take() [][]T {
	segs := r.segs
	if len(segs) > 0 {
		segs[0] = segs[0][r.head:]
	}
	r.segs, r.head, r.n = nil, 0, 0
	return segs
}

// items returns a copy of the retained records, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, r.n)
	for i, seg := range r.segs {
		if i == 0 {
			seg = seg[r.head:]
		}
		out = append(out, seg...)
	}
	return out
}

// DefaultSpanCap bounds a SpanLog's ring. A tiny-profile run records a few
// hundred spans (one per probed target plus the stage/vp scaffolding); a
// long continuous-monitoring run wraps, keeping the most recent rounds.
const DefaultSpanCap = 1 << 15

// SpanLog is a bounded, concurrency-safe ring of completed spans plus the
// set of in-flight ones. Like every obs primitive it is nil-safe: a
// component handed no log pays one nil check per span. When the ring is
// full the oldest records are overwritten (flight-recorder semantics) and
// Dropped counts them.
type SpanLog struct {
	mu     sync.Mutex
	nextID uint64
	ring   ring[SpanRecord]
	open   map[SpanID]*OpenSpan
}

// NewSpanLog creates a log retaining at most limit completed spans
// (limit <= 0 selects DefaultSpanCap).
func NewSpanLog(limit int) *SpanLog {
	if limit <= 0 {
		limit = DefaultSpanCap
	}
	return &SpanLog{ring: ring[SpanRecord]{limit: limit}, open: make(map[SpanID]*OpenSpan)}
}

// Enabled reports whether spans will be retained (false on nil).
func (sl *SpanLog) Enabled() bool { return sl != nil }

// Begin opens a span under parent (0 for a root). The ID is assigned
// immediately, so children can reference the span before it ends.
func (sl *SpanLog) Begin(parent SpanID, name, detail string) *OpenSpan {
	if sl == nil {
		return nil
	}
	sl.mu.Lock()
	sl.nextID++
	o := &OpenSpan{
		sl:    sl,
		rec:   SpanRecord{ID: SpanID(sl.nextID), Parent: parent, Name: name, Detail: detail},
		start: time.Now(),
	}
	sl.open[o.rec.ID] = o
	sl.mu.Unlock()
	return o
}

// Records returns a copy of the retained completed spans in completion
// order (children before their parents, since a span ends after its
// children).
func (sl *SpanLog) Records() []SpanRecord {
	if sl == nil {
		return nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.ring.items()
}

// Active returns the in-flight spans in ID order, with their
// accumulated simulated time and live wall-clock elapsed — the
// /v1/status view of what the pipeline is doing right now.
func (sl *SpanLog) Active() []SpanRecord {
	if sl == nil {
		return nil
	}
	sl.mu.Lock()
	out := make([]SpanRecord, 0, len(sl.open))
	for _, o := range sl.open {
		rec := o.rec
		rec.Attrs = append([]Attr(nil), o.rec.Attrs...)
		rec.WallNS = int64(time.Since(o.start))
		out = append(out, rec)
	}
	sl.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Snapshot returns completed records followed by the in-flight ones — the
// exportable view of a possibly-live log (a run root span, for instance,
// stays open for the life of the process).
func (sl *SpanLog) Snapshot() []SpanRecord {
	return append(sl.Records(), sl.Active()...)
}

// Len returns the number of retained completed spans.
func (sl *SpanLog) Len() int {
	if sl == nil {
		return 0
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.ring.n
}

// ActiveCount returns the number of in-flight spans.
func (sl *SpanLog) ActiveCount() int {
	if sl == nil {
		return 0
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return len(sl.open)
}

// Dropped returns how many completed spans the ring bound overwrote
// (fragment drop counts are carried over by Merge).
func (sl *SpanLog) Dropped() uint64 {
	if sl == nil {
		return 0
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.ring.dropped
}

// Merge moves a fragment log's completed spans into sl under parent, with
// the fragment's drop count, and leaves the fragment with neither. The
// fleet keeps one fragment per shard attempt and merges the winners in VP
// order after the pool drains, so the merged IDs — like merged trace
// sequence numbers — are independent of which shard finished first. The
// records keep the segments they lie in: their IDs are rewritten there and
// sl adopts the segments. frag must not be sl.
func (sl *SpanLog) Merge(frag *SpanLog, parent SpanID) {
	if sl == nil || frag == nil {
		return
	}
	frag.mu.Lock()
	segs, dropped := frag.ring.take(), frag.ring.dropped
	frag.ring.dropped = 0
	frag.mu.Unlock()
	sl.merge(parent, dropped, segs...)
}

// MergeRecords folds externally produced records (a driver's per-target
// spans, a remote agent's pulled session spans) into sl. Every distinct
// incoming ID is re-assigned from sl's counter in ascending incoming-ID
// order — the original Begin order — and parent references are rewritten;
// a record with no parent (or a parent outside the batch) attaches under
// parent. Deterministic for a deterministic input batch. The records are
// rewritten in place and sl keeps recs as they lie: the caller hands the
// slice over and must not touch it again.
func (sl *SpanLog) MergeRecords(recs []SpanRecord, parent SpanID) {
	if sl == nil || len(recs) == 0 {
		return
	}
	sl.merge(parent, 0, recs)
}

// merge is MergeRecords over the batch parts spell end to end, adding
// dropped to sl's drop count. An incoming ID's new ID is its rank among the
// batch's sorted distinct IDs, past sl's counter.
func (sl *SpanLog) merge(parent SpanID, dropped uint64, parts ...[]SpanRecord) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	ids := make([]SpanID, 0, n)
	for _, p := range parts {
		for _, r := range p {
			ids = append(ids, r.ID)
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	base := SpanID(sl.nextID) + 1
	sl.nextID += uint64(len(ids))
	for _, p := range parts {
		for j := range p {
			r := &p[j]
			if i, ok := slices.BinarySearch(ids, r.Parent); ok {
				r.Parent = base + SpanID(i)
			} else {
				r.Parent = parent
			}
			i, _ := slices.BinarySearch(ids, r.ID)
			r.ID = base + SpanID(i)
		}
		sl.ring.adopt(p)
	}
	sl.ring.dropped += dropped
}

// ---------------------------------------------------------------------------
// JSONL export / import

// WriteJSONL exports the log's snapshot (completed then in-flight spans)
// as JSON Lines, one span per line.
func (sl *SpanLog) WriteJSONL(w io.Writer) error {
	return WriteSpanJSONL(w, sl.Snapshot())
}

// WriteSpanJSONL writes an explicit record slice as JSON Lines in the
// given order; ReadSpanJSONL inverts it, so export→import→export is a
// fixed point.
func WriteSpanJSONL(w io.Writer, recs []SpanRecord) error { return writeJSONL(w, recs) }

// ReadSpanJSONL parses a stream written by WriteSpanJSONL. Blank lines
// are skipped; any other malformed line is an error.
func ReadSpanJSONL(r io.Reader) ([]SpanRecord, error) { return readJSONL[SpanRecord](r, "span") }

// ---------------------------------------------------------------------------
// Fingerprint

// Fingerprint hashes the deterministic portion of the span tree: IDs,
// parents, names, details, simulated durations, and every non-volatile
// attr, in ID order. Wall-clock durations are excluded, so for a fixed
// seed the fingerprint is identical across runs, across worker counts,
// and across repeated runs of one healing fault schedule.
func (sl *SpanLog) Fingerprint() string { return FingerprintSpans(sl.Snapshot()) }

// FingerprintSpans is Fingerprint over an explicit record slice (e.g. one
// reloaded with ReadSpanJSONL). The slice order does not matter: records
// are hashed in ID order.
func FingerprintSpans(recs []SpanRecord) string {
	sorted := append([]SpanRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	h := sha256.New()
	for _, r := range sorted {
		fmt.Fprintf(h, "s %d %d %s %s %d", r.ID, r.Parent, r.Name, r.Detail, r.SimNS)
		for _, a := range r.Attrs {
			if a.Volatile() {
				continue
			}
			fmt.Fprintf(h, " %s=%s", a.K, a.V)
		}
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---------------------------------------------------------------------------
// Chrome trace_event export / import

// chromeEvent is one complete ("ph":"X") event in the Chrome trace_event
// format. Timestamps and durations are microseconds. The full SpanRecord
// rides in args.span so an exported file imports back losslessly.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	Span SpanRecord `json:"span"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome exports the log's snapshot in Chrome trace_event format —
// load the file in Perfetto (ui.perfetto.dev) or chrome://tracing to see
// the run's timeline.
func (sl *SpanLog) WriteChrome(w io.Writer) error {
	return WriteChromeTrace(w, sl.Snapshot())
}

// WriteChromeTrace renders records as trace_event complete events on the
// canonical serialized timeline: a span's effective duration is the
// larger of its own SimNS and the sum of its children's effective
// durations, and children are laid out back to back in ID order inside
// their parent. Roots (parent 0 or a parent dropped by the ring bound)
// are laid out sequentially from t=0. The layout is a pure function of
// the records, so export→import→export is byte-stable.
func WriteChromeTrace(w io.Writer, recs []SpanRecord) error {
	sorted := append([]SpanRecord(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	present := make(map[SpanID]int, len(sorted)) // ID → index in sorted
	for i, r := range sorted {
		present[r.ID] = i
	}
	children := make(map[SpanID][]int)
	var roots []int
	for i, r := range sorted {
		if r.Parent != 0 {
			if _, ok := present[r.Parent]; ok {
				children[r.Parent] = append(children[r.Parent], i)
				continue
			}
		}
		roots = append(roots, i)
	}

	// Effective durations, bottom-up. The visiting guard breaks parent
	// cycles that hand-edited imports could contain.
	eff := make([]int64, len(sorted))
	state := make([]int8, len(sorted)) // 0 unvisited, 1 visiting, 2 done
	var durOf func(i int) int64
	durOf = func(i int) int64 {
		if state[i] == 2 {
			return eff[i]
		}
		if state[i] == 1 {
			return 0
		}
		state[i] = 1
		var sum int64
		for _, c := range children[sorted[i].ID] {
			sum += durOf(c)
		}
		d := sorted[i].SimNS
		if sum > d {
			d = sum
		}
		eff[i] = d
		state[i] = 2
		return d
	}

	var events []chromeEvent
	var emit func(i int, startNS int64)
	emit = func(i int, startNS int64) {
		r := sorted[i]
		label := r.Name
		if r.Detail != "" {
			label += " " + r.Detail
		}
		events = append(events, chromeEvent{
			Name: label, Cat: r.Name, Ph: "X",
			Ts: float64(startNS) / 1e3, Dur: float64(durOf(i)) / 1e3,
			Pid: 1, Tid: 1,
			Args: chromeArgs{Span: r},
		})
		cursor := startNS
		for _, c := range children[r.ID] {
			emit(c, cursor)
			cursor += durOf(c)
		}
	}
	cursor := int64(0)
	for _, i := range roots {
		emit(i, cursor)
		cursor += durOf(i)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// ReadChromeTrace loads a file written by WriteChromeTrace, recovering
// the exact span records from args.span in document order (which is the
// writer's depth-first layout order).
func ReadChromeTrace(r io.Reader) ([]SpanRecord, error) {
	var ct chromeTrace
	if err := json.NewDecoder(r).Decode(&ct); err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	out := make([]SpanRecord, 0, len(ct.TraceEvents))
	for _, ev := range ct.TraceEvents {
		out = append(out, ev.Args.Span)
	}
	return out, nil
}
