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

// The map-based span merge, kept verbatim as the oracle the rank-based one
// is held to: a fragment copied out with Records first, a seen set for the
// batch's distinct IDs and a remap table from each to its new ID.

// mergeOracle is Merge as it was.
func (sl *SpanLog) mergeOracle(frag *SpanLog, parent SpanID) {
	if sl == nil || frag == nil {
		return
	}
	sl.mergeRecordsOracle(frag.Records(), parent)
	dropped := frag.Dropped()
	sl.mu.Lock()
	sl.ring.dropped += dropped
	sl.mu.Unlock()
}

// mergeRecordsOracle is MergeRecords as it was.
func (sl *SpanLog) mergeRecordsOracle(recs []SpanRecord, parent SpanID) {
	if sl == nil || len(recs) == 0 {
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
	sl.mu.Lock()
	remap := make(map[SpanID]SpanID, len(ids))
	for _, id := range ids {
		sl.nextID++
		remap[id] = SpanID(sl.nextID)
	}
	sl.ring.grow(len(recs))
	for _, r := range recs {
		r.ID = remap[r.ID]
		if np, ok := remap[r.Parent]; ok {
			r.Parent = np
		} else {
			r.Parent = parent
		}
		sl.ring.push(r)
	}
	sl.mu.Unlock()
}
