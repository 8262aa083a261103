// Package export serializes measurement artifacts — traceroutes, inferred
// border maps, and merged multi-VP maps — as JSON Lines, the interchange
// format downstream consumers (the congestion monitoring pipeline,
// analysis notebooks) read. The package's tests decode the stream back and
// hold the round trip exact.
package export

import (
	"bufio"
	"encoding/json"
	"io"

	"bdrmap/internal/core"
	"bdrmap/internal/netx"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// Record kinds, carried in every line's "type" field.
const (
	KindTrace      = "trace"
	KindLink       = "link"
	KindRouter     = "router"
	KindMeta       = "meta"
	KindMergedLink = "merged-link"
)

// envelope tags each line with its kind.
type envelope struct {
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// Meta describes a dataset.
type Meta struct {
	VPName  string   `json:"vp"`
	HostASN topo.ASN `json:"host_asn"`
}

// TraceJSON is the wire form of one traceroute.
type TraceJSON struct {
	Dst      netx.Addr `json:"dst"`
	TargetAS topo.ASN  `json:"target_as"`
	Reached  bool      `json:"reached"`
	Stopped  bool      `json:"stopped"`
	Hops     []HopJSON `json:"hops"`
}

// HopJSON is one hop; a hop that did not answer has no address.
type HopJSON struct {
	TTL   int       `json:"ttl"`
	Type  string    `json:"type"`
	Addr  netx.Addr `json:"addr,omitempty"`
	IPID  uint16    `json:"ipid,omitempty"`
	RTTns int64     `json:"rtt_ns,omitempty"`
}

// LinkJSON is one inferred interdomain link.
type LinkJSON struct {
	Near      netx.Addr `json:"near"`
	Far       netx.Addr `json:"far,omitempty"` // zero, and omitted, for silent neighbors
	FarAS     topo.ASN  `json:"far_as"`
	Heuristic string    `json:"heuristic"`
}

// RouterJSON is one inferred router.
type RouterJSON struct {
	Addrs     []netx.Addr `json:"addrs"`
	Owner     topo.ASN    `json:"owner,omitempty"`
	Heuristic string      `json:"heuristic,omitempty"`
	IsHost    bool        `json:"is_host,omitempty"`
	HopDist   int         `json:"hop_dist"`
}

// MergedLinkJSON is one link of a merged multi-VP map.
type MergedLinkJSON struct {
	Near      netx.Addr `json:"near"`
	Far       netx.Addr `json:"far,omitempty"`
	FarAS     topo.ASN  `json:"far_as"`
	Heuristic string    `json:"heuristic"`
	SeenBy    []string  `json:"seen_by"`
}

// Writer emits JSONL records.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

func (x *Writer) emit(kind string, v any) {
	if x.err != nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		x.err = err
		return
	}
	line, err := json.Marshal(envelope{Type: kind, Data: data})
	if err != nil {
		x.err = err
		return
	}
	if _, err := x.w.Write(append(line, '\n')); err != nil {
		x.err = err
	}
}

// Meta writes the dataset header.
func (x *Writer) Meta(m Meta) { x.emit(KindMeta, m) }

// Trace writes one traceroute.
func (x *Writer) Trace(tr scamper.TraceRecord) {
	tj := TraceJSON{
		Dst:      tr.Dst,
		TargetAS: tr.TargetAS,
		Reached:  tr.Reached,
		Stopped:  tr.Stopped,
	}
	for _, h := range tr.Hops {
		hj := HopJSON{TTL: h.TTL, Type: h.Type.String(), Addr: h.Addr, IPID: h.IPID}
		if h.RTT > 0 {
			hj.RTTns = int64(h.RTT)
		}
		tj.Hops = append(tj.Hops, hj)
	}
	x.emit(KindTrace, tj)
}

// Result writes a full inference result (routers then links).
func (x *Writer) Result(res *core.Result) {
	for _, rn := range res.Routers {
		x.emit(KindRouter, RouterJSON{
			Addrs: rn.Addrs, Owner: rn.Owner, Heuristic: string(rn.Heuristic),
			IsHost: rn.IsHost, HopDist: rn.HopDist,
		})
	}
	for _, l := range res.Links {
		x.emit(KindLink, LinkJSON{
			Near: l.NearAddr, Far: l.FarAddr, FarAS: l.FarAS,
			Heuristic: string(l.Heuristic),
		})
	}
}

// Merged writes a merged multi-VP map (the continuous-monitoring
// pipeline's round artifact).
func (x *Writer) Merged(m *core.MergedMap) {
	for _, l := range m.Links {
		x.emit(KindMergedLink, MergedLinkJSON{
			Near: l.Key.Near, Far: l.Key.Far, FarAS: l.Key.FarAS,
			Heuristic: string(l.Heuristic), SeenBy: l.SeenBy,
		})
	}
}

// Flush completes the stream.
func (x *Writer) Flush() error {
	if x.err != nil {
		return x.err
	}
	return x.w.Flush()
}
