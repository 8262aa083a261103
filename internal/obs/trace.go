package obs

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"slices"
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
//
// Every run is traced and almost none is asked why, so the two sides are
// split the way log/slog splits them: emit sites hand the Tracer typed
// values (evidence.go) and it stores those; the strings of an Event exist
// only on this file's read side — Events, WriteJSONL, Fingerprint, Summary
// and, through them, Explain.

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

// Event is one structured provenance record as readers see it. It is the
// exported view only: a Tracer stores typed records and renders Events —
// every string below — when asked for them.
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
	// "a|b" address pair, or a target AS (OnAddr, OnPair, OnAS).
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

// Tracer is an append-only, concurrency-safe log of provenance events.
// Like every obs primitive it is nil-safe: a component handed no tracer
// pays one nil check per event. It keeps every event it takes in; a tracer
// lives for one scenario, so what it holds is bounded by the world it
// traces.
//
// What it stores is not Events but their records (evidence.go): a few
// dozen pointer-free bytes each, appended to write-once chunks the garbage
// collector never scans. Because a byte, once written, never changes, a
// tracer can take a fragment's events in by reference — Merge and
// MergeRange append views of the fragment's chunks, copying no event — and
// readers decode views outside the lock. Sequence numbers are positional
// (the i-th event is number i) and so cost nothing to re-assign on a
// merge.
type Tracer struct {
	mu  sync.Mutex
	seq uint64 // events taken in; the next event's sequence number
	end uint64 // bytes taken in: the log offset of the next record
	// views are the records, oldest first. Only the last can have spare
	// capacity, and only if this tracer made its chunk: nobody else
	// appends there.
	views   [][]byte
	chunk   int    // size of the next chunk
	scratch []byte // the record being encoded
}

// Chunks double from minChunk to maxChunk, so a fragment holding a few
// events costs a few hundred bytes and a busy log a chunk per ~300 events.
const (
	minChunk = 512
	maxChunk = 32 << 10
)

// NewTracer creates an empty tracer.
func NewTracer() *Tracer { return &Tracer{chunk: minChunk} }

// Enabled reports whether events will be kept (false on nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Emit appends one event. simNS is the stage-relative simulated timestamp.
// The fields are encoded before Emit returns and not retained.
func (t *Tracer) Emit(kind Kind, subject Field, simNS int64, fields ...Field) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.scratch = appendRecord(t.scratch[:0], kind, simNS, subject, fields)
	rec := t.scratch
	var pfx [binary.MaxVarintLen32]byte
	w := binary.PutUvarint(pfx[:], uint64(len(rec)))
	need := w + len(rec)
	last := len(t.views) - 1
	if last < 0 || cap(t.views[last])-len(t.views[last]) < need {
		t.views = append(t.views, make([]byte, 0, max(t.chunk, need)))
		t.chunk = min(2*t.chunk, maxChunk)
		last++
	}
	t.views[last] = append(append(t.views[last], pfx[:w]...), rec...)
	t.end += uint64(need)
	t.seq++
	t.mu.Unlock()
}

// Pos is a position in a tracer's log: between two events, or at either
// end. The zero Pos is the start of every log.
type Pos struct{ off, seq uint64 }

// Pos returns the end of the log so far. Two positions taken around a
// stretch of Emit calls delimit those events for MergeRange — how one log
// shared by a worker's targets is cut back into per-target fragments.
func (t *Tracer) Pos() Pos {
	if t == nil {
		return Pos{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Pos{t.end, t.seq}
}

// MergeRange appends the events src took in between lo and hi to t, in
// order, re-assigning sequence numbers. src is left as it was. src must
// not be t.
func (t *Tracer) MergeRange(src *Tracer, lo, hi Pos) {
	if t == nil || src == nil {
		return
	}
	t.mu.Lock()
	src.mu.Lock()
	t.adopt(src, lo, hi)
	src.mu.Unlock()
	t.mu.Unlock()
}

// adopt takes views of src's records in [lo, hi). Caller holds both locks.
func (t *Tracer) adopt(src *Tracer, lo, hi Pos) {
	var at uint64
	for _, v := range src.views {
		next := at + uint64(len(v))
		if a, b := max(lo.off, at), min(hi.off, next); a < b {
			// Capacity clipped: t never appends into a chunk it did not make.
			t.views = append(t.views, v[a-at:b-at:b-at])
		}
		at = next
	}
	t.end += hi.off - lo.off
	t.seq += hi.seq - lo.seq
}

// Merge appends every event of each fragment to t, in argument order and
// each in its own order, re-assigning sequence numbers. The fleet uses this
// to fold per-shard tracers into the run's stream in shard order, making
// the merged stream independent of which worker finished first. Nil
// fragments are skipped; a fragment must not be t itself.
func (t *Tracer) Merge(frags ...*Tracer) {
	if t == nil {
		return
	}
	views := 0
	for _, frag := range frags {
		if frag != nil {
			frag.mu.Lock()
			views += len(frag.views)
			frag.mu.Unlock()
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.views = slices.Grow(t.views, views)
	for _, frag := range frags {
		if frag == nil {
			continue
		}
		frag.mu.Lock()
		t.adopt(frag, Pos{}, Pos{frag.end, frag.seq})
		frag.mu.Unlock()
	}
}

// each calls fn with every record, oldest first. The bytes behind a view
// never change, so they are decoded outside the lock.
func (t *Tracer) each(fn func(seq uint64, rec []byte)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	views := slices.Clone(t.views)
	t.mu.Unlock()
	var seq uint64
	for _, v := range views {
		for len(v) > 0 {
			l, w := binary.Uvarint(v)
			fn(seq, v[w:w+int(l)])
			seq++
			v = v[w+int(l):]
		}
	}
}

// Events returns the events in sequence order, rendered.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, t.Len())
	t.each(func(seq uint64, rec []byte) { out = append(out, render(seq, rec)) })
	return out
}

// Len returns the number of events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.seq)
}

// WriteJSONL exports the events as JSON Lines, one event per line, in
// sequence order.
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
