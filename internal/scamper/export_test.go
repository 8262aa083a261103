package scamper

import (
	"hash/fnv"
	"io"
	"net"
	"sort"
	"strconv"

	"bdrmap/internal/netx"
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
