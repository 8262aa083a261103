package obs

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// This file is the decision-provenance half of the observability layer:
// where counters answer "how often did heuristic X fire", the Tracer
// answers "why did bdrmap attribute THIS router to AS Y" — the question
// the paper's validation story (§7) has operators asking. Every stage of
// the pipeline emits typed events carrying the evidence it consulted, and
// the resulting stream is deterministic for a fixed seed: sequence numbers
// and simulated timestamps only, wall clock excluded, so a Fingerprint of
// the trace pins byte-identical parallel runs exactly as the metrics
// fingerprint does.

// Trace stages. Events are grouped under the pipeline stage that emitted
// them; SimNS is relative to that stage's own timeline (the probe stage
// restarts it per target so the stream is worker-count-invariant).
const (
	StageProbe = "probe"
	StageAlias = "alias"
	StageCore  = "core"
)

// Attr is one key/value evidence item on an event. Keys beginning with
// '~' mark volatile evidence: faithfully exported and rendered, but
// excluded from Fingerprint. Raw IP-ID samples are the canonical example —
// their absolute values depend on how lane clocks interleave across worker
// counts even though the verdicts derived from them do not.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// KV builds an Attr with fmt-style default formatting of the value. The
// types the per-trace provenance attrs carry are rendered by strconv —
// byte for byte what %v prints for them — because one cold map builds
// tens of thousands of attrs; everything else goes through fmt.
func KV(k string, v any) Attr {
	switch x := v.(type) {
	case string:
		return Attr{K: k, V: x}
	case bool:
		return Attr{K: k, V: strconv.FormatBool(x)}
	case int:
		return Attr{K: k, V: strconv.Itoa(x)}
	case int64:
		return Attr{K: k, V: strconv.FormatInt(x, 10)}
	case uint:
		return Attr{K: k, V: strconv.FormatUint(uint64(x), 10)}
	case uint8:
		return Attr{K: k, V: strconv.FormatUint(uint64(x), 10)}
	case uint16:
		return Attr{K: k, V: strconv.FormatUint(uint64(x), 10)}
	case uint32:
		return Attr{K: k, V: strconv.FormatUint(uint64(x), 10)}
	case uint64:
		return Attr{K: k, V: strconv.FormatUint(x, 10)}
	default:
		return Attr{K: k, V: fmt.Sprintf("%v", v)}
	}
}

// Volatile reports whether the attr is excluded from Fingerprint.
func (a Attr) Volatile() bool { return strings.HasPrefix(a.K, "~") }

// Name returns the attr key without the volatile marker.
func (a Attr) Name() string { return strings.TrimPrefix(a.K, "~") }

// Event is one structured provenance record.
type Event struct {
	// Seq is the event's position in the merged stream, assigned by the
	// tracer; deterministic for a fixed seed.
	Seq uint64 `json:"seq"`
	// SimNS is the simulated timestamp, relative to the emitting stage's
	// timeline (per-target for the probe stage). Wall clock never appears.
	SimNS int64 `json:"sim_ns"`
	// Stage is the pipeline stage (StageProbe, StageAlias, StageCore).
	Stage string `json:"stage"`
	// Kind is the event type within the stage, e.g. "trace", "pair",
	// "decision".
	Kind string `json:"kind"`
	// Subject identifies the entity the event is about: an address, an
	// "a|b" address pair, or a target AS.
	Subject string `json:"subject"`
	// Attrs is the ordered evidence list.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attr ("" when absent). Volatile
// attrs are found under their unmarked name too.
func (e Event) Attr(k string) string {
	for _, a := range e.Attrs {
		if a.K == k || a.Name() == k {
			return a.V
		}
	}
	return ""
}

// ring is the bounded flight-recorder store under Tracer and SpanLog: once
// limit records are held, each push overwrites the oldest and counts it
// dropped. It is not synchronised; its owner's mutex guards it.
type ring[T any] struct {
	limit   int
	dropped uint64
	buf     []T // len(buf) <= limit
	head    int // index of the oldest record when len(buf) == limit
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % r.limit
	r.dropped++
}

// items returns a copy of the retained records, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	older, newer := r.runs()
	return append(append(out, older...), newer...)
}

// runs returns the retained records in place, oldest first, as the two
// runs of buf they occupy (the second is empty until the ring has wrapped).
func (r *ring[T]) runs() (older, newer []T) { return r.buf[r.head:], r.buf[:r.head] }

// reserve makes room for n more pushes, up to limit, in one allocation, so
// a merge does not re-grow buf once per fragment.
func (r *ring[T]) reserve(n int) {
	if want := min(r.limit, len(r.buf)+n); want > cap(r.buf) {
		r.buf = slices.Grow(r.buf, want-len(r.buf))
	}
}

// Tracer is a bounded, concurrency-safe ring buffer of events. Like every
// obs primitive it is nil-safe: a component handed no tracer pays one nil
// check per event. When the buffer is full the oldest events are
// overwritten (flight-recorder semantics) and Dropped counts them.
type Tracer struct {
	mu   sync.Mutex
	seq  uint64
	ring ring[Event]
}

// DefaultTraceCap bounds the scenario-level tracer. The tiny profile emits
// a few thousand events; the Tier-1 profile tens of thousands.
const DefaultTraceCap = 1 << 17

// NewTracer creates a tracer retaining at most limit events (limit <= 0
// selects DefaultTraceCap).
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultTraceCap
	}
	return &Tracer{ring: ring[Event]{limit: limit}}
}

// Enabled reports whether events will be retained (false on nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Emit appends one event. simNS is the stage-relative simulated timestamp.
func (t *Tracer) Emit(stage, kind, subject string, simNS int64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.push(Event{SimNS: simNS, Stage: stage, Kind: kind, Subject: subject, Attrs: attrs})
	t.mu.Unlock()
}

// push appends ev with the next sequence number. Caller holds t.mu.
func (t *Tracer) push(ev Event) {
	ev.Seq = t.seq
	t.seq++
	t.ring.push(ev)
}

// Merge appends every event of each fragment to t, in argument order and
// each in its own order, re-assigning sequence numbers. The driver uses
// this to fold per-target fragment tracers into the run's stream in target
// order, making the merged stream independent of which worker finished
// first. Fragment drop counts are carried over. Room for the whole batch
// is reserved once and each fragment is read in place under its own lock:
// an event is copied once per level it is merged through, never into a
// slice that then grows. Nil fragments are skipped; a fragment must not be
// t itself.
func (t *Tracer) Merge(frags ...*Tracer) {
	if t == nil {
		return
	}
	n := 0
	for _, frag := range frags {
		n += frag.Len()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring.reserve(n)
	for _, frag := range frags {
		if frag == nil {
			continue
		}
		frag.mu.Lock()
		older, newer := frag.ring.runs()
		for i := range older {
			t.push(older[i])
		}
		for i := range newer {
			t.push(newer[i])
		}
		t.ring.dropped += frag.ring.dropped
		frag.mu.Unlock()
	}
}

// Events returns a copy of the retained events in sequence order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.items()
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring.buf)
}

// Dropped returns how many events were overwritten by the ring bound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.dropped
}

// WriteJSONL exports the retained events as JSON Lines, one event per
// line, in sequence order.
func (t *Tracer) WriteJSONL(w io.Writer) error { return writeJSONL(w, t.Events()) }

// ReadJSONL parses a stream written by WriteJSONL. Blank lines are
// skipped; any other malformed line is an error.
func ReadJSONL(r io.Reader) ([]Event, error) { return readJSONL[Event](r, "trace") }

// writeJSONL is the one JSON Lines encoder under the trace and span
// exports: one record per line, in the given order.
func writeJSONL[T any](w io.Writer, recs []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readJSONL inverts writeJSONL, so export→import→export is a fixed point.
// Blank lines are skipped; a malformed one is an error naming what (the
// stream's record kind) and the line.
func readJSONL[T any](r io.Reader, what string) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec T
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", what, line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Fingerprint hashes the deterministic portion of the trace: sequence
// numbers, stage-relative simulated timestamps, stages, kinds, subjects,
// and every non-volatile attr. For a fixed seed the fingerprint is
// identical across repeated runs and across worker counts.
func (t *Tracer) Fingerprint() string { return FingerprintEvents(t.Events()) }

// FingerprintEvents is Fingerprint over an explicit event slice (e.g. one
// reloaded with ReadJSONL).
func FingerprintEvents(events []Event) string {
	h := sha256.New()
	for _, ev := range events {
		fmt.Fprintf(h, "e %d %d %s %s %s", ev.Seq, ev.SimNS, ev.Stage, ev.Kind, ev.Subject)
		for _, a := range ev.Attrs {
			if a.Volatile() {
				continue
			}
			fmt.Fprintf(h, " %s=%s", a.K, a.V)
		}
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CountByKind tallies retained events per "stage.kind" — a cheap summary
// for tests and the CLI.
func (t *Tracer) CountByKind() map[string]int {
	out := make(map[string]int)
	for _, ev := range t.Events() {
		out[ev.Stage+"."+ev.Kind]++
	}
	return out
}

// kindOrder renders CountByKind deterministically.
func kindOrder(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Summary renders a one-line-per-kind event census.
func (t *Tracer) Summary() string {
	m := t.CountByKind()
	var b strings.Builder
	for _, k := range kindOrder(m) {
		fmt.Fprintf(&b, "  %-24s %d\n", k, m[k])
	}
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(&b, "  %-24s %d\n", "(dropped)", d)
	}
	return b.String()
}
