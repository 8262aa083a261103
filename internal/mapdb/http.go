package mapdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// HTTP/JSON query API over a Store, mounted on bdrmapd's mux under /v1/.
// Every endpoint answers from exactly one generation (one atomic snapshot
// load per request), reports errors as structured JSON
// {"error":{"code","message"}}, and is instrumented through internal/obs:
// a per-endpoint request counter (mapdb.http.<endpoint>), an error counter
// (mapdb.http.errors), and a shared latency histogram
// (mapdb.http.latency_us) that surfaces on bdrmapd's /metrics.

// The hot replies — owner, link, neighbors, gen and every error — are
// appended, not reflected: each is rendered with strconv into one pooled
// buffer and sent with a single Write, allocation-free. The bytes are
// exactly what json.Encoder writes for the same shapes (indented two spaces
// for replies, compact for errors, a trailing newline, HTML escaping),
// which the package's tests hold them to. The cold endpoints (status,
// fleet, diff, watch) keep encoding/json.

// jsonContentType is the Content-Type every JSON reply shares.
var jsonContentType = []string{"application/json"}

// replyBufs recycles reply buffers; one grown past maxPooledReply (a huge
// neighbors reply) is left to the collector rather than kept alive.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 64 << 10

// sendJSON writes the reply render appends to a pooled buffer as the whole
// JSON body, with status, in one Write.
func sendJSON(w http.ResponseWriter, status int, render func([]byte) []byte) {
	bp := replyBufs.Get().(*[]byte)
	b := render((*bp)[:0])
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledReply {
		*bp = b
		replyBufs.Put(bp)
	}
}

// WriteError writes a structured JSON error: a machine-readable code plus
// a human-readable message, replacing bare http.Error text bodies.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	sendJSON(w, status, func(b []byte) []byte { return appendError(b, code, msg) })
}

// writeMiss writes the 404 for a key generation gen does not hold. Its
// message is msg, which the caller builds in a stack buffer with room to
// spare, and " generation gen".
func writeMiss(w http.ResponseWriter, code string, msg []byte, gen int) {
	msg = strconv.AppendInt(append(msg, " generation "...), int64(gen), 10)
	sendJSON(w, http.StatusNotFound, func(b []byte) []byte { return appendError(b, code, msg) })
}

// appendError appends the error body {"error":{"code","message"}}.
func appendError[S string | []byte](b []byte, code string, msg S) []byte {
	b = appendString(append(b, `{"error":{"code":`...), code)
	b = appendString(append(b, `,"message":`...), msg)
	return append(b, "}}\n"...)
}

// NotFoundHandler returns structured JSON 404s for unmatched paths, so a
// mux's fallthrough matches the API's error contract.
func NotFoundHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, "not_found", "no handler for "+r.URL.Path)
	})
}

// indents is a newline and the two-space indent of up to six levels.
const indents = "\n            "

// member starts the next member (name non-empty) or array element (name
// empty) at depth d: the comma after a previous one, the newline and
// indent, and the quoted name.
func member(b []byte, d int, name string) []byte {
	if c := b[len(b)-1]; c != '{' && c != '[' {
		b = append(b, ',')
	}
	b = append(b, indents[:1+2*d]...)
	if name == "" {
		return b
	}
	return append(append(append(b, '"'), name...), `": `...)
}

// closing closes an object or array opened at depth d on a line of its
// own; an empty one closes right after its opener, as {} or [].
func closing(b []byte, d int, c byte) []byte {
	if o := b[len(b)-1]; o != '{' && o != '[' {
		b = append(b, indents[:1+2*d]...)
	}
	return append(b, c)
}

func appendAddr(b []byte, a netx.Addr) []byte {
	return append(a.AppendTo(append(b, '"')), '"')
}

// appendString appends s as a JSON string, escaped as encoding/json does
// by default: quote, backslash, control bytes, <, > and &, U+2028 and
// U+2029, and each byte of invalid UTF-8 as \ufffd.
func appendString[S string | []byte](b []byte, s S) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendLink appends l as an object opened at depth d, the read API's
// wire shape: a silent far side is spelled "silent" and an empty
// heuristic is omitted.
func appendLink(b []byte, l Link, d int) []byte {
	b = appendAddr(member(append(b, '{'), d+1, "near"), l.Near)
	if b = member(b, d+1, "far"); l.Far.IsZero() {
		b = append(b, `"silent"`...)
	} else {
		b = appendAddr(b, l.Far)
	}
	b = strconv.AppendUint(member(b, d+1, "far_as"), uint64(l.FarAS), 10)
	if l.Heuristic != "" {
		b = appendString(member(b, d+1, "heuristic"), l.Heuristic)
	}
	return closing(b, d, '}')
}

// appendLinks appends ls as an array of links opened at depth d.
func appendLinks(b []byte, ls []Link, d int) []byte {
	b = append(b, '[')
	for _, l := range ls {
		b = appendLink(member(b, d+1, ""), l, d+1)
	}
	return closing(b, d, ']')
}

// linksJSON carries /v1/diff's link lists through encoding/json in the
// read API's wire shape; the encoder compacts and re-indents what
// appendLinks writes.
type linksJSON []Link

func (ls linksJSON) MarshalJSON() ([]byte, error) { return appendLinks(nil, ls, 0), nil }

func appendOwnerReply(b []byte, gen int, ip netx.Addr, o OwnerInfo) []byte {
	b = strconv.AppendInt(member(append(b, '{'), 1, "gen"), int64(gen), 10)
	b = appendAddr(member(b, 1, "ip"), ip)
	b = strconv.AppendUint(member(b, 1, "as"), uint64(o.AS), 10)
	b = appendString(member(b, 1, "heuristic"), o.Heuristic)
	b = strconv.AppendBool(member(b, 1, "host"), o.Host)
	b = strconv.AppendInt(member(b, 1, "hop_dist"), int64(o.HopDist), 10)
	return append(closing(b, 0, '}'), '\n')
}

func appendLinkReply(b []byte, gen int, l Link) []byte {
	b = strconv.AppendInt(member(append(b, '{'), 1, "gen"), int64(gen), 10)
	b = appendLink(member(b, 1, "link"), l, 1)
	return append(closing(b, 0, '}'), '\n')
}

func appendNeighborsReply(b []byte, gen int, as topo.ASN, ls []Link) []byte {
	b = strconv.AppendInt(member(append(b, '{'), 1, "gen"), int64(gen), 10)
	b = strconv.AppendUint(member(b, 1, "as"), uint64(as), 10)
	b = strconv.AppendInt(member(b, 1, "count"), int64(len(ls)), 10)
	b = appendLinks(member(b, 1, "links"), ls, 1)
	return append(closing(b, 0, '}'), '\n')
}

// appendGenReply appends /v1/gen's summary of s; gens lists the retained
// generations. Nil VPs are null, as encoding/json writes them; gens is
// never nil.
func appendGenReply(b []byte, s *Snapshot, gens []int) []byte {
	b = strconv.AppendInt(member(append(b, '{'), 1, "gen"), int64(s.Gen()), 10)
	b = strconv.AppendUint(member(b, 1, "host_as"), uint64(s.HostASN()), 10)
	if b = member(b, 1, "vps"); s.VPs() == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for _, vp := range s.VPs() {
			b = appendString(member(b, 2, ""), vp)
		}
		b = closing(b, 1, ']')
	}
	b = strconv.AppendInt(member(b, 1, "links"), int64(s.NumLinks()), 10)
	b = strconv.AppendInt(member(b, 1, "neighbors"), int64(s.NumNeighbors()), 10)
	b = strconv.AppendInt(member(b, 1, "owners"), int64(s.NumOwners()), 10)
	b = append(member(b, 1, "generations"), '[')
	for _, g := range gens {
		b = strconv.AppendInt(member(b, 2, ""), int64(g), 10)
	}
	return append(closing(closing(b, 1, ']'), 0, '}'), '\n')
}

// latencyEdgesUS are the query-latency histogram bucket edges in
// microseconds (point lookups are expected in the lowest buckets).
var latencyEdgesUS = []int64{1, 5, 25, 100, 500, 2500, 10000, 100000}

type api struct {
	store *Store
	reg   *obs.Registry
	spans *obs.SpanLog

	// watchKeepalive is the idle-stream keepalive interval on /v1/watch
	// (tests shorten it; zero means the 15s default).
	watchKeepalive time.Duration
}

// Handler serves the query API for st. Routes (all GET):
//
//	/v1/gen                 current generation summary + retained history
//	/v1/owner?ip=A          owner AS of the router behind interface A
//	/v1/link?near=A&far=B   the interdomain link on hop pair (A, B)
//	/v1/link?near=A         the silent link at A (§5.4.8)
//	/v1/neighbors?as=N      all links attaching neighbor AS N
//	/v1/diff?from=G&to=H    churn between two retained generations
//	/v1/watch[?from=G]      NDJSON stream of GenDiffs as they publish,
//	                        resumable from a retained generation
//	/v1/segment[?gen=G]     a generation as a raw segment image (the
//	                        on-disk format; the follower full-sync path)
//
// reg may be nil (no instrumentation).
func Handler(st *Store, reg *obs.Registry) http.Handler {
	return HandlerWithStatus(st, reg, nil)
}

// HandlerWithStatus is Handler plus the live operational surface:
//
//	/v1/status              serving + pipeline state: current generation,
//	                        incremental-cache hit rates, span-log totals,
//	                        currently open spans (round/stage/per-VP), and
//	                        runtime health (heap, GC, goroutines)
//
// sl is the process-wide span log the pipeline records into; nil degrades
// /v1/status to serving-and-runtime state only.
func HandlerWithStatus(st *Store, reg *obs.Registry, sl *obs.SpanLog) http.Handler {
	a := &api{store: st, reg: reg, spans: sl}
	mux := http.NewServeMux()
	mux.Handle("/v1/gen", a.wrap("gen", a.handleGen))
	mux.Handle("/v1/owner", a.wrap("owner", a.handleOwner))
	mux.Handle("/v1/link", a.wrap("link", a.handleLink))
	mux.Handle("/v1/neighbors", a.wrap("neighbors", a.handleNeighbors))
	mux.Handle("/v1/diff", a.wrap("diff", a.handleDiff))
	mux.Handle("/v1/watch", a.wrapStream("watch", a.handleWatch))
	mux.Handle("/v1/segment", a.wrap("segment", a.handleSegment))
	mux.Handle("/v1/status", a.wrap("status", a.handleStatus))
	mux.Handle("/v1/fleet", a.wrap("fleet", a.handleFleet))
	mux.Handle("/", NotFoundHandler())
	return mux
}

// wrap instruments one endpoint: request counter, latency histogram,
// method guard. Metric handles are resolved once, not per request.
func (a *api) wrap(name string, fn func(http.ResponseWriter, *http.Request) bool) http.Handler {
	reqs := a.reg.Counter("mapdb.http." + name)
	errs := a.reg.Counter("mapdb.http.errors")
	lat := a.reg.Histogram("mapdb.http.latency_us", latencyEdgesUS)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		reqs.Inc()
		ok := false
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				r.Method+" not supported; use GET")
		} else {
			ok = fn(w, r)
		}
		if !ok {
			errs.Inc()
		}
		lat.Observe(time.Since(t0).Microseconds())
	})
}

// wrapStream instruments a long-lived streaming endpoint: request and
// error counters only. A watch stream lives for minutes — folding its
// lifetime into the point-query latency histogram would bury the p99 the
// histogram exists to expose.
func (a *api) wrapStream(name string, fn func(http.ResponseWriter, *http.Request) bool) http.Handler {
	reqs := a.reg.Counter("mapdb.http." + name)
	errs := a.reg.Counter("mapdb.http.errors")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		ok := false
		if r.Method != http.MethodGet {
			WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed",
				r.Method+" not supported; use GET")
		} else {
			ok = fn(w, r)
		}
		if !ok {
			errs.Inc()
		}
	})
}

// snapshot answers 503 until a first generation is published.
func (a *api) snapshot(w http.ResponseWriter) (*Snapshot, bool) {
	s := a.store.Current()
	if s == nil {
		WriteError(w, http.StatusServiceUnavailable, "no_generation",
			"no map generation published yet")
		return nil, false
	}
	return s, true
}

// writeJSON writes a cold endpoint's reply through encoding/json.
func writeJSON(w http.ResponseWriter, v any) bool {
	w.Header()["Content-Type"] = jsonContentType
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return true
}

func (a *api) handleGen(w http.ResponseWriter, r *http.Request) bool {
	s, ok := a.snapshot(w)
	if !ok {
		return false
	}
	var buf [DefaultHistory]int
	gens := a.store.appendGenerations(buf[:0])
	sendJSON(w, http.StatusOK, func(b []byte) []byte { return appendGenReply(b, s, gens) })
	return true
}

func (a *api) handleOwner(w http.ResponseWriter, r *http.Request) bool {
	addr, ok := parseAddrParam(w, r.URL.RawQuery, "ip", true)
	if !ok {
		return false
	}
	s, ok := a.snapshot(w)
	if !ok {
		return false
	}
	o, found := s.Owner(addr)
	if !found {
		var m [96]byte
		writeMiss(w, "unknown_interface", append(addr.AppendTo(m[:0]), " was not observed in any trace of"...), s.Gen())
		return false
	}
	sendJSON(w, http.StatusOK, func(b []byte) []byte { return appendOwnerReply(b, s.Gen(), addr, o) })
	return true
}

func (a *api) handleLink(w http.ResponseWriter, r *http.Request) bool {
	q := r.URL.RawQuery
	near, ok := parseAddrParam(w, q, "near", true)
	if !ok {
		return false
	}
	far, ok := parseAddrParam(w, q, "far", false)
	if !ok {
		return false
	}
	s, ok := a.snapshot(w)
	if !ok {
		return false
	}
	l, found := s.Link(near, far)
	if !found {
		var m [96]byte
		writeMiss(w, "not_a_border", append(m[:0], "no inferred interdomain link on that hop pair in"...), s.Gen())
		return false
	}
	sendJSON(w, http.StatusOK, func(b []byte) []byte { return appendLinkReply(b, s.Gen(), l) })
	return true
}

func (a *api) handleNeighbors(w http.ResponseWriter, r *http.Request) bool {
	asn, ok := parseASNParam(w, r.URL.RawQuery, "as")
	if !ok {
		return false
	}
	s, ok := a.snapshot(w)
	if !ok {
		return false
	}
	lo, hi := s.neighborSpan(asn)
	if lo == hi {
		var m [96]byte
		as := strconv.AppendUint(append(m[:0], "AS"...), uint64(asn), 10)
		writeMiss(w, "unknown_neighbor", append(as, " has no inferred link in"...), s.Gen())
		return false
	}
	sendJSON(w, http.StatusOK, func(b []byte) []byte { return appendNeighborsReply(b, s.Gen(), asn, s.links[lo:hi]) })
	return true
}

func (a *api) handleDiff(w http.ResponseWriter, r *http.Request) bool {
	q := r.URL.RawQuery
	from, ok := parseIntParam(w, q, "from")
	if !ok {
		return false
	}
	to, ok := parseIntParam(w, q, "to")
	if !ok {
		return false
	}
	d, err := a.store.Diff(from, to)
	if err != nil {
		var br *BadRangeError
		if errors.As(err, &br) {
			WriteError(w, http.StatusBadRequest, "bad_range", err.Error())
		} else {
			WriteError(w, http.StatusNotFound, "unknown_generation", err.Error())
		}
		return false
	}
	changes := make([]struct {
		Addr string `json:"addr"`
		From uint32 `json:"from"`
		To   uint32 `json:"to"`
	}, len(d.OwnerChanges))
	for i, c := range d.OwnerChanges {
		changes[i].Addr = c.Addr.String()
		changes[i].From = uint32(c.From)
		changes[i].To = uint32(c.To)
	}
	return writeJSON(w, struct {
		From             int       `json:"from"`
		To               int       `json:"to"`
		Added            linksJSON `json:"added"`
		Removed          linksJSON `json:"removed"`
		NeighborsAdded   []uint32  `json:"neighbors_added"`
		NeighborsRemoved []uint32  `json:"neighbors_removed"`
		OwnerChanges     any       `json:"owner_changes"`
	}{
		From: d.From, To: d.To,
		Added: linksJSON(d.Added), Removed: linksJSON(d.Removed),
		NeighborsAdded:   toASNsJSON(d.NeighborsAdded),
		NeighborsRemoved: toASNsJSON(d.NeighborsRemoved),
		OwnerChanges:     changes,
	})
}

// handleWatch streams GenDiffs as NDJSON frames: one "hello" frame naming
// the generation the stream is current as of, then one "diff" frame per
// publish, with periodic "keepalive" frames while idle. `?from=G` first
// replays the retained backlog G→now; a G that fell out of history is a
// 404 (unknown_generation) telling the client to full-sync /v1/segment.
// This is the follower replication channel and the monitor push channel —
// same frames, same resume rules.
func (a *api) handleWatch(w http.ResponseWriter, r *http.Request) bool {
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "not_streamable",
			"response writer cannot stream")
		return false
	}
	from := 0
	if q := r.URL.RawQuery; queryValue(q, "from") != "" {
		if from, ok = parseIntParam(w, q, "from"); !ok {
			return false
		}
	}

	ch, cancel, cur := a.store.Watch(256)
	defer cancel()

	// Assemble the backlog before committing the response status: a
	// resume gap must surface as a clean 404, not a broken stream.
	var backlog []*GenDiff
	if from > 0 && from < cur {
		for g := from; g < cur; g++ {
			d, err := a.store.Diff(g, g+1)
			if err != nil {
				WriteError(w, http.StatusNotFound, "unknown_generation", err.Error())
				return false
			}
			backlog = append(backlog, d)
		}
	}
	if from > cur {
		WriteError(w, http.StatusNotFound, "unknown_generation",
			fmt.Sprintf("generation %d not published yet (current %d)", from, cur))
		return false
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	enc := json.NewEncoder(w)

	var host topo.ASN
	if s := a.store.Current(); s != nil {
		host = s.HostASN()
	}
	send := func(f WatchFrame) bool {
		if err := enc.Encode(f); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !send(WatchFrame{Type: "hello", Gen: cur, HostAS: host}) {
		return true
	}
	for _, d := range backlog {
		if !send(WatchFrame{Type: "diff", Gen: d.To, Diff: d}) {
			return true
		}
	}
	// The backlog ends at cur; live frames at or below it are duplicates
	// of what was just replayed.
	last := cur

	ka := a.watchKeepalive
	if ka <= 0 {
		ka = 15 * time.Second
	}
	ticker := time.NewTicker(ka)
	defer ticker.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return true
		case d, ok := <-ch:
			if !ok {
				// This subscriber lagged past its buffer and was dropped;
				// ending the stream tells it to resume (or full-sync).
				return true
			}
			if d.To <= last {
				continue
			}
			if !send(WatchFrame{Type: "diff", Gen: d.To, Diff: d}) {
				return true
			}
			last = d.To
		case <-ticker.C:
			if !send(WatchFrame{Type: "keepalive", Gen: last}) {
				return true
			}
		}
	}
}

// handleSegment serves a generation as its raw segment image — the same
// bytes writeSegmentFile persists — for follower full sync and offline
// archival (`curl -o map.seg`). Default is the current generation;
// `?gen=G` serves any retained one.
func (a *api) handleSegment(w http.ResponseWriter, r *http.Request) bool {
	var s *Snapshot
	if q := r.URL.RawQuery; queryValue(q, "gen") != "" {
		gen, ok := parseIntParam(w, q, "gen")
		if !ok {
			return false
		}
		snap, ok := a.store.Generation(gen)
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown_generation",
				(&NotRetainedError{Gen: gen}).Error())
			return false
		}
		s = snap
	} else {
		snap, ok := a.snapshot(w)
		if !ok {
			return false
		}
		s = snap
	}
	img := s.marshalSegment()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Mapdb-Generation", strconv.Itoa(s.Gen()))
	w.Header().Set("Content-Length", strconv.Itoa(len(img)))
	_, _ = w.Write(img)
	return true
}

// vpStatusJSON summarizes one vantage point's pipeline activity from its
// span history: how many rounds it has completed, whether a run is open
// right now, and the total simulated probing time it has accumulated.
type vpStatusJSON struct {
	VP    string `json:"vp"`
	State string `json:"state"` // "running" or "idle"
	Runs  int    `json:"runs"`
	SimNS int64  `json:"sim_ns"`
}

// handleStatus is the live ops surface: unlike every other endpoint it
// never errors — a daemon that has not published a generation yet still
// answers 200 with published=false, because "not serving yet" is exactly
// the state an operator polls this endpoint to see.
func (a *api) handleStatus(w http.ResponseWriter, r *http.Request) bool {
	type cacheJSON struct {
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	}
	type spansJSON struct {
		Recorded int    `json:"recorded"`
		Active   int    `json:"active"`
		Dropped  uint64 `json:"dropped"`
	}
	type runtimeJSON struct {
		Goroutines     int    `json:"goroutines"`
		HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
		HeapObjects    uint64 `json:"heap_objects"`
		GCRuns         uint32 `json:"gc_runs"`
		GCPauseTotalNS uint64 `json:"gc_pause_total_ns"`
	}
	type statusJSON struct {
		Published   bool             `json:"published"`
		Gen         int              `json:"gen,omitempty"`
		Generations []int            `json:"generations,omitempty"`
		Cache       cacheJSON        `json:"cache"`
		Spans       spansJSON        `json:"spans"`
		Live        []obs.SpanRecord `json:"live,omitempty"`
		VPs         []vpStatusJSON   `json:"vps,omitempty"`
		Fleet       *fleetJSON       `json:"fleet,omitempty"`
		Runtime     runtimeJSON      `json:"runtime"`
	}

	out := statusJSON{Fleet: a.fleetStatus()}
	if s := a.store.Current(); s != nil {
		out.Published = true
		out.Gen = s.Gen()
		out.Generations = a.store.Generations()
	}

	hits := a.reg.Counter("rounds.cache.hit").Load()
	misses := a.reg.Counter("rounds.cache.miss").Load()
	out.Cache = cacheJSON{Hits: hits, Misses: misses}
	if total := hits + misses; total > 0 {
		out.Cache.HitRate = float64(hits) / float64(total)
	}

	if a.spans.Enabled() {
		out.Spans = spansJSON{
			Recorded: a.spans.Len(),
			Active:   a.spans.ActiveCount(),
			Dropped:  a.spans.Dropped(),
		}
		out.Live = a.spans.Active()
		for _, v := range foldVPs(a.spans, false) {
			out.VPs = append(out.VPs, vpStatusJSON{VP: v.vp, State: v.state(), Runs: v.done, SimNS: v.simNS})
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.Runtime = runtimeJSON{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapObjects:    ms.HeapObjects,
		GCRuns:         ms.NumGC,
		GCPauseTotalNS: ms.PauseTotalNs,
	}
	return writeJSON(w, out)
}

// fleetVPJSON is one vantage point's shard state as the fleet coordinator
// last saw it: completed or in-flight, and how many times it has run
// (once per coordinator run).
type fleetVPJSON struct {
	VP       string `json:"vp"`
	State    string `json:"state"` // "running" or "idle"
	Attempts int    `json:"attempts"`
	SimNS    int64  `json:"sim_ns"`
}

// fleetJSON is the coordinator section of /v1/status and the body of
// /v1/fleet, folded from the fleet.* counters and the span log's
// fleet-mode vp spans. Counters are cumulative across every coordinator
// run in the process.
type fleetJSON struct {
	Shards    int64         `json:"shards"`
	Completed int64         `json:"completed"`
	InFlight  int64         `json:"in_flight"`
	Queued    int64         `json:"queued"`
	VPs       []fleetVPJSON `json:"vps,omitempty"`
}

// fleetStatus folds the live coordinator state, or nil when no fleet has
// run in this process.
func (a *api) fleetStatus() *fleetJSON {
	c := func(name string) int64 { return a.reg.Counter(name).Load() }
	shards := c("fleet.shards")
	if shards == 0 {
		return nil
	}
	started := c("fleet.started")
	completed := c("fleet.completed")
	f := &fleetJSON{
		Shards:    shards,
		Completed: completed,
		InFlight:  started - completed,
		Queued:    shards - started,
	}
	if a.spans.Enabled() {
		// Each completed span is one run; an open one is the run going on
		// right now.
		for _, v := range foldVPs(a.spans, true) {
			f.VPs = append(f.VPs, fleetVPJSON{VP: v.vp, State: v.state(), Attempts: v.done + v.active, SimNS: v.simNS})
		}
	}
	return f
}

// handleFleet serves the coordinator's detailed state. Unlike /v1/status
// (which simply omits the section), a process that never ran a fleet
// answers a structured 404 here — the endpoint's subject does not exist.
func (a *api) handleFleet(w http.ResponseWriter, r *http.Request) bool {
	f := a.fleetStatus()
	if f == nil {
		WriteError(w, http.StatusNotFound, "no_fleet",
			"no fleet coordinator has run in this process")
		return false
	}
	return writeJSON(w, f)
}

// vpFold is one vantage point's vp spans folded together: how many have
// completed (one per run), how many are open right now, and the simulated
// time the completed ones accumulated.
type vpFold struct {
	vp           string
	done, active int
	simNS        int64
}

func (v vpFold) state() string {
	if v.active > 0 {
		return "running"
	}
	return "idle"
}

// foldVPs folds the span log's vp spans — every one, or only the fleet
// coordinator's shards — into one row per vantage point, in first-seen
// order (VP order, since vp spans are begun in VP order each round).
func foldVPs(sl *obs.SpanLog, fleetOnly bool) []vpFold {
	idx := make(map[string]int)
	var out []vpFold
	row := func(rec obs.SpanRecord) *vpFold {
		if rec.Name != "vp" || fleetOnly && rec.Attr("mode") != "fleet" {
			return nil
		}
		i, ok := idx[rec.Detail]
		if !ok {
			i = len(out)
			idx[rec.Detail] = i
			out = append(out, vpFold{vp: rec.Detail})
		}
		return &out[i]
	}
	for _, rec := range sl.Records() {
		if v := row(rec); v != nil {
			v.done++
			v.simNS += rec.SimNS
		}
	}
	for _, rec := range sl.Active() {
		if v := row(rec); v != nil {
			v.active++
		}
	}
	return out
}

func toASNsJSON(as []topo.ASN) []uint32 {
	out := make([]uint32, len(as))
	for i, a := range as {
		out[i] = uint32(a)
	}
	return out
}

// queryValue returns the first value of key in the raw query q, as
// url.ParseQuery(q).Get(key) would, without building the url.Values: pairs
// split on '&', '+' means space, and a pair holding a ';' or a bad escape
// is skipped.
func queryValue(q, key string) string {
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// parseAddrParam parses a dotted-quad parameter of the raw query q. When
// required is false, an absent parameter yields the zero address
// (silent-link query).
func parseAddrParam(w http.ResponseWriter, q, key string, required bool) (netx.Addr, bool) {
	v := queryValue(q, key)
	if v == "" || v == "silent" {
		if !required {
			return 0, true
		}
		WriteError(w, http.StatusBadRequest, "missing_parameter", "query parameter "+key+" is required")
		return 0, false
	}
	a, err := netx.ParseAddr(v)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_address", key+": "+err.Error())
		return 0, false
	}
	return a, true
}

// parseASNParam parses an AS number, accepting both "65000" and "AS65000".
func parseASNParam(w http.ResponseWriter, q, key string) (topo.ASN, bool) {
	v := queryValue(q, key)
	if v == "" {
		WriteError(w, http.StatusBadRequest, "missing_parameter", "query parameter "+key+" is required")
		return 0, false
	}
	t := strings.TrimPrefix(strings.TrimPrefix(v, "AS"), "as")
	n, err := strconv.ParseUint(t, 10, 32)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_asn", key+": cannot parse "+strconv.Quote(v))
		return 0, false
	}
	return topo.ASN(n), true
}

func parseIntParam(w http.ResponseWriter, q, key string) (int, bool) {
	v := queryValue(q, key)
	if v == "" {
		WriteError(w, http.StatusBadRequest, "missing_parameter", "query parameter "+key+" is required")
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_generation", key+": cannot parse "+strconv.Quote(v))
		return 0, false
	}
	return n, true
}
