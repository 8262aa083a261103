package scamper

import (
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sort"
	"strconv"
	"unsafe"

	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
)

// The string renderers the driver and TraceFingerprint used to run on every
// trace, moved here verbatim as the oracle their append-into-one-buffer
// replacements are held to.

// pathString renders a trace's hop sequence as "ttl:class:addr" tokens —
// the response-class evidence per hop. IP-IDs are deliberately omitted:
// they depend on lane interleaving and would break worker-count-invariant
// fingerprints (alias events carry them as volatile attrs instead).
func pathString(res probe.TraceResult) string {
	b := make([]byte, 0, 24*len(res.Hops)) // "ttl:te:a.b.c.d " is at most 22 bytes below TTL 100
	for i, h := range res.Hops {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(h.TTL), 10)
		b = append(b, ':')
		b = append(b, hopClass(h.Type)...)
		if !h.Addr.IsZero() {
			b = append(b, ':')
			b = h.Addr.AppendTo(b)
		}
	}
	return string(b)
}

// hopClass abbreviates a hop response class for path strings.
func hopClass(t probe.HopType) string {
	switch t {
	case probe.HopTimeExceeded:
		return "te"
	case probe.HopEchoReply:
		return "er"
	case probe.HopUnreachable:
		return "un"
	default:
		return "to"
	}
}

// traceFingerprintStrings is TraceFingerprint building one string per trace.
func (ds *Dataset) traceFingerprintStrings() uint64 {
	lines := make([]string, 0, len(ds.Traces))
	for _, tr := range ds.Traces {
		s := tr.TargetAS.String() + "|" + tr.Dst.String() + "|" + pathString(tr.TraceResult)
		if tr.Stopped {
			s += "|s"
		}
		lines = append(lines, s)
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// CountExecs returns a copy of the per-sequence execution counts. The
// duplicate-suppression cache guarantees every entry is exactly 1; the
// property tests assert this.
func (a *Agent) CountExecs() map[uint32]int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[uint32]int, len(a.execs))
	for k, v := range a.execs {
		out[k] = v
	}
	return out
}

// ServeConn runs one protocol session over an established connection.
// A clean peer shutdown (bye or EOF) returns nil.
func (a *Agent) ServeConn(conn net.Conn) error {
	ended, _, err := a.serve(conn)
	if ended || err == io.EOF {
		return nil
	}
	return err
}

// eachAddr calls yield for every address the state retains: the hops of
// every cached trace and both addresses and both sides of the verdict of
// every alias operation.
func (st *RoundState) eachAddr(yield func(netx.Addr)) {
	for _, ct := range st.traces {
		for _, h := range ct.rec.Hops {
			yield(h.Addr)
		}
	}
	for op, pv := range st.aliases {
		yield(op.a)
		yield(op.b)
		yield(pv.A)
		yield(pv.B)
	}
}

// IdleArena describes one arena on the free list: the backing arrays of its
// buffers (a warm stage that reuses the arena keeps every one of them), the
// bytes those buffers hold, and what it still holds that an emptied arena
// must not ("" when it is empty).
type IdleArena struct {
	Arrays []unsafe.Pointer
	Bytes  int
	Dirty  string
}

// IdleArenas describes the arenas on the free list.
func IdleArenas() []IdleArena {
	idleArenas.Lock()
	defer idleArenas.Unlock()
	var out []IdleArena
	for _, ar := range idleArenas.list {
		var ia IdleArena
		hold := func(p unsafe.Pointer, bytes int) {
			ia.Arrays = append(ia.Arrays, p)
			ia.Bytes += bytes
		}
		dirty := func(format string, args ...any) {
			if ia.Dirty == "" {
				ia.Dirty = fmt.Sprintf(format, args...)
			}
		}
		hold(unsafe.Pointer(unsafe.SliceData(ar.outs)), cap(ar.outs)*int(unsafe.Sizeof(targetOut{})))
		for i, o := range ar.outs[:cap(ar.outs)] {
			if o.recs != nil || o.sigs != nil {
				dirty("target slot %d still holds its records", i)
			}
		}
		for w := range ar.recs {
			hold(unsafe.Pointer(unsafe.SliceData(ar.recs[w])), cap(ar.recs[w])*int(unsafe.Sizeof(TraceRecord{})))
			hold(unsafe.Pointer(unsafe.SliceData(ar.sigs[w])), cap(ar.sigs[w])*8)
			for i, r := range ar.recs[w][:cap(ar.recs[w])] {
				if r.Hops != nil {
					dirty("worker %d's record %d still holds its hops", w, i)
				}
			}
			if len(ar.recs[w])+len(ar.sigs[w])+len(ar.priors[w]) != 0 {
				dirty("worker %d holds %d records, %d signatures, %d priors", w, len(ar.recs[w]), len(ar.sigs[w]), len(ar.priors[w]))
			}
		}
		hold(unsafe.Pointer(unsafe.SliceData(ar.preds)), cap(ar.preds)*int(unsafe.Sizeof([]netx.Addr{})))
		for _, ps := range ar.preds {
			hold(unsafe.Pointer(unsafe.SliceData(ps)), cap(ps)*4)
			if len(ps) != 0 {
				dirty("a predecessor list holds %d addresses", len(ps))
			}
		}
		hold(unsafe.Pointer(unsafe.SliceData(ar.sorted)), cap(ar.sorted)*4)
		if len(ar.outs)+len(ar.id)+len(ar.sorted) != 0 {
			dirty("%d slots, %d addresses, %d sorted", len(ar.outs), len(ar.id), len(ar.sorted))
		}
		hold(unsafe.Pointer(unsafe.SliceData(ar.fpKeys)), cap(ar.fpKeys)*int(unsafe.Sizeof(traceKey{})))
		hold(unsafe.Pointer(unsafe.SliceData(ar.fpLine)), cap(ar.fpLine))
		hold(unsafe.Pointer(unsafe.SliceData(ar.fpOther)), cap(ar.fpOther))
		hold(unsafe.Pointer(unsafe.SliceData(ar.fpHops)), cap(ar.fpHops)*int(unsafe.Sizeof(obs.Hop{})))
		if len(ar.fpKeys)+len(ar.fpLine)+len(ar.fpOther)+len(ar.fpHops) != 0 {
			dirty("%d fingerprint keys, %d+%d line bytes, %d hops", len(ar.fpKeys), len(ar.fpLine), len(ar.fpOther), len(ar.fpHops))
		}
		out = append(out, ia)
	}
	return out
}

// DrainArenas empties the free list, so the next stages start cold.
func DrainArenas() {
	idleArenas.Lock()
	idleArenas.list = nil
	idleArenas.Unlock()
}

// indexEdgesMap is arena.indexEdges as it was, finding an edge seen before
// in a set of (predecessor, address) pairs instead of the address's
// predecessor list: the oracle the list scan is held to. It returns each
// address's predecessors, first seen first, and the addresses sorted.
func indexEdgesMap(traces []TraceRecord) (map[netx.Addr][]netx.Addr, []netx.Addr) {
	type edge struct{ prev, cur netx.Addr }
	edges := make(map[edge]struct{})
	preds := make(map[netx.Addr][]netx.Addr)
	var sorted []netx.Addr
	for _, tr := range traces {
		var prev netx.Addr
		for _, h := range tr.Hops {
			if h.Type != probe.HopTimeExceeded {
				if h.Type == probe.HopTimeout {
					prev = 0
				}
				continue
			}
			if _, ok := preds[h.Addr]; !ok {
				preds[h.Addr] = nil
				sorted = append(sorted, h.Addr)
			}
			if !prev.IsZero() && prev != h.Addr {
				e := edge{prev, h.Addr}
				if _, seen := edges[e]; !seen {
					edges[e] = struct{}{}
					preds[h.Addr] = append(preds[h.Addr], prev)
				}
			}
			prev = h.Addr
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return preds, sorted
}
