package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"

	"bdrmap/internal/netx"
)

// What follows is the eager renderer the emit sites used to be: every value
// turned into text by String methods, fmt and KV, the list helpers moved
// here verbatim (modulo the element types they now see). It is the oracle
// the lazy read side is held to; it shares the record decoder with it and
// nothing else.

// pathString renders a trace's hop sequence as "ttl:class:addr" tokens.
func pathString(hops []Hop) string {
	b := make([]byte, 0, 24*len(hops)) // "ttl:te:a.b.c.d " is at most 22 bytes below TTL 100
	for i, h := range hops {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(h.TTL), 10)
		b = append(b, ':')
		b = append(b, hopClass(h.Class)...)
		if !h.Addr.IsZero() {
			b = append(b, ':')
			b = h.Addr.AppendTo(b)
		}
	}
	return string(b)
}

// hopClass abbreviates a hop response class for path strings.
func hopClass(t HopClass) string {
	switch t {
	case HopTimeExceeded:
		return "te"
	case HopEchoReply:
		return "er"
	case HopUnreachable:
		return "un"
	default:
		return "to"
	}
}

// addrList renders addresses as a comma-separated list.
func addrList(addrs []netx.Addr) string {
	var b []byte
	for i, a := range addrs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, []byte(a.String())...)
	}
	return string(b)
}

// heurList renders heuristic tags as a comma-separated list.
func heurList(hs []string) string {
	var b []byte
	for i, h := range hs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, []byte(h)...)
	}
	return string(b)
}

// fmtIDs renders IP-ID samples as comma-separated decimals.
func fmtIDs(ids []uint16) string {
	b := make([]byte, 0, 6*len(ids))
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(id), 10)
	}
	return string(b)
}

func asString(as uint32) string { return fmt.Sprintf("AS%d", as) }

// eagerAttr is one field as its emit site used to build it.
func eagerAttr(v value) Attr {
	k := keyNames[v.key]
	raw, ne := v.raw, binary.NativeEndian
	switch v.kind {
	case vInt:
		return KV(k, int(v.num))
	case vFlag:
		return KV(k, true)
	case vIP:
		return KV(k, netx.Addr(v.num).String())
	case vIPPair:
		return KV(k, netx.Addr(v.num>>32).String()+"|"+netx.Addr(v.num).String())
	case vAS:
		return KV(k, asString(uint32(v.num)))
	case vASPair:
		return KV(k, asString(uint32(v.num>>32))+"~"+asString(uint32(v.num)))
	case vStr:
		return KV(k, string(raw))
	case vIPs:
		var addrs []netx.Addr
		for ; len(raw) > 0; raw = raw[4:] {
			addrs = append(addrs, netx.Addr(ne.Uint32(raw)))
		}
		return KV(k, addrList(addrs))
	case vIDs:
		var ids []uint16
		for ; len(raw) > 0; raw = raw[2:] {
			ids = append(ids, ne.Uint16(raw))
		}
		return Attr{K: k, V: fmtIDs(ids)}
	case vPath:
		var hops []Hop
		for ; len(raw) > 0; raw = raw[8:] {
			hops = append(hops, Hop{TTL: raw[0], Class: HopClass(raw[1]), Addr: netx.Addr(ne.Uint32(raw[4:]))})
		}
		return KV(k, pathString(hops))
	}
	panic(fmt.Sprintf("obs: value kind %d has no eager rendering", v.kind))
}

// EagerEvents is Events through the eager renderer.
func (t *Tracer) EagerEvents() []Event {
	var out []Event
	t.each(func(seq uint64, rec []byte) {
		r := readRecord(rec)
		ev := Event{Seq: seq, SimNS: r.simNS, Stage: kindNames[r.kind].stage, Kind: kindNames[r.kind].name}
		for v, ok := r.next(); ok; v, ok = r.next() {
			if a := eagerAttr(v); v.key == keySubject {
				ev.Subject = a.V
			} else {
				ev.Attrs = append(ev.Attrs, a)
			}
		}
		out = append(out, ev)
	})
	return out
}

// WriteEventsJSONL is WriteJSONL over an explicit slice.
func WriteEventsJSONL(w io.Writer, events []Event) error { return writeJSONL(w, events) }

// oracleLog is a span log as it was kept before its ring held segments,
// the oracle the segmented ring and its merges are held to: one flat
// buffer that wraps in place, merged into by the map-based remap over
// copied-out records.
type oracleLog struct {
	nextID uint64
	ring   flatRing[SpanRecord]
}

// flatRing is the ring as it was: once limit records are held, each push
// overwrites the oldest and counts it dropped.
type flatRing[T any] struct {
	limit   int
	dropped uint64
	buf     []T // len(buf) <= limit
	head    int // index of the oldest record when len(buf) == limit
}

func (r *flatRing[T]) push(v T) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % r.limit
	r.dropped++
}

func (r *flatRing[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	return append(append(out, r.buf[r.head:]...), r.buf[:r.head]...)
}

func newOracleLog(limit int) *oracleLog {
	if limit <= 0 {
		limit = DefaultSpanCap
	}
	return &oracleLog{ring: flatRing[SpanRecord]{limit: limit}}
}

// end records a span begun now, as Begin and End in a row do.
func (o *oracleLog) end(rec SpanRecord) {
	o.nextID++
	rec.ID = SpanID(o.nextID)
	o.ring.push(rec)
}

// merge is Merge as it was: frag's records copied out and remapped, its
// drop count carried.
func (o *oracleLog) merge(frag *SpanLog, parent SpanID) {
	o.mergeRecords(frag.Records(), parent)
	o.ring.dropped += frag.Dropped()
}

// mergeRecords is MergeRecords as it was; recs is left as it was passed.
func (o *oracleLog) mergeRecords(recs []SpanRecord, parent SpanID) {
	if len(recs) == 0 {
		return
	}
	ids := make([]SpanID, 0, len(recs))
	seen := make(map[SpanID]bool, len(recs))
	for _, r := range recs {
		if !seen[r.ID] {
			seen[r.ID] = true
			ids = append(ids, r.ID)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	remap := make(map[SpanID]SpanID, len(ids))
	for _, id := range ids {
		o.nextID++
		remap[id] = SpanID(o.nextID)
	}
	for _, r := range recs {
		r.ID = remap[r.ID]
		if np, ok := remap[r.Parent]; ok {
			r.Parent = np
		} else {
			r.Parent = parent
		}
		o.ring.push(r)
	}
}
