package export

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"bdrmap/internal/asrel"
	"bdrmap/internal/bgp"
	"bdrmap/internal/core"
	"bdrmap/internal/ixp"
	"bdrmap/internal/probe"
	"bdrmap/internal/rir"
	"bdrmap/internal/scamper"
	"bdrmap/internal/sibling"
	"bdrmap/internal/topo"
)

func runPipeline(t *testing.T) (*topo.Network, *scamper.Dataset, *core.Result) {
	t.Helper()
	n := topo.Generate(topo.TinyProfile(), 1)
	tab := bgp.NewTable(n)
	view := bgp.Collect(tab, bgp.DefaultVantages(n))
	sibs := sibling.FromNetwork(n, 1)
	sibs.CurateHost(n)
	hosts := map[topo.ASN]bool{n.HostASN: true}
	e := probe.New(n, tab)
	d := &scamper.Driver{
		View: view, Prober: scamper.LocalProber{E: e, VP: n.VPs[0]},
		HostASNs: hosts, Cfg: scamper.Config{Workers: 1},
	}
	ds := d.Run()
	res := core.Infer(core.Input{
		Data: ds, View: view, Rel: asrel.Infer(view),
		RIR: rir.FromNetwork(n), IXP: ixp.Merge(ixp.FromNetwork(n, 1)),
		HostASN: n.HostASN, Siblings: sibs,
	})
	return n, ds, res
}

func TestRoundTrip(t *testing.T) {
	n, ds, res := runPipeline(t)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Meta(Meta{VPName: ds.VPName, HostASN: n.HostASN})
	for _, tr := range ds.Traces {
		w.Trace(tr)
	}
	w.Result(res)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.VPName != ds.VPName || got.Meta.HostASN != n.HostASN {
		t.Fatalf("meta = %+v", got.Meta)
	}
	if len(got.Traces) != len(ds.Traces) {
		t.Fatalf("traces = %d, want %d", len(got.Traces), len(ds.Traces))
	}
	if len(got.Links) != len(res.Links) {
		t.Fatalf("links = %d, want %d", len(got.Links), len(res.Links))
	}
	if len(got.Routers) != len(res.Routers) {
		t.Fatalf("routers = %d, want %d", len(got.Routers), len(res.Routers))
	}

	// Full trace fidelity: every decoded field is the measured one.
	for i, a := range got.Traces {
		b := ds.Traces[i]
		if a.Dst != b.Dst || a.TargetAS != b.TargetAS || a.Reached != b.Reached ||
			a.Stopped != b.Stopped || len(a.Hops) != len(b.Hops) {
			t.Fatalf("trace %d differs: %+v vs %+v", i, a, b)
		}
		for j, h := range a.Hops {
			want := b.Hops[j]
			if h.TTL != int(want.TTL) || h.Type != want.Type.String() || h.Addr != want.Addr ||
				h.IPID != want.IPID || h.RTTns != int64(want.RTT) {
				t.Fatalf("trace %d hop %d differs: %+v vs %+v", i, j, h, want)
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(strings.NewReader(`{"type":"wat","data":{}}` + "\n")); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Read(strings.NewReader(`{"type":"trace","data":[1,2]}` + "\n")); err == nil {
		t.Error("mis-shaped data accepted")
	}
	if _, err := Read(strings.NewReader(`{"type":"trace","data":{"dst":"10.0.0","hops":[]}}` + "\n")); err == nil {
		t.Error("malformed address accepted")
	}
}

func TestEmptyStream(t *testing.T) {
	ds, err := Read(strings.NewReader(""))
	if err != nil || len(ds.Traces) != 0 {
		t.Fatalf("empty stream: %v %v", ds, err)
	}
}

func TestMergedMapRoundTrip(t *testing.T) {
	_, _, res := runPipeline(t)
	m := core.Merge([]*core.Result{res})
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Merged(m)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Merged) != m.LinkCount() {
		t.Fatalf("merged links = %d, want %d", len(got.Merged), m.LinkCount())
	}
	for i, ml := range got.Merged {
		if len(ml.SeenBy) == 0 {
			t.Fatalf("merged link %d lost SeenBy", i)
		}
		if ml.FarAS != m.Links[i].Key.FarAS {
			t.Fatalf("merged link %d far AS differs", i)
		}
	}
}

func TestSilentLinkOmitsFar(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	res := &core.Result{Links: []*core.Link{{
		Near:      &core.RouterNode{},
		NearAddr:  1,
		FarAS:     99,
		Heuristic: core.HeurSilent,
	}}}
	w.Result(res)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"far":`) {
		t.Fatalf("silent link serialized a far address: %s", buf.String())
	}
	got, err := Read(&buf)
	if err != nil || len(got.Links) != 1 || got.Links[0].Far != 0 {
		t.Fatalf("silent link round trip: %+v %v", got.Links, err)
	}
}

// Dataset is the decoded form of an exported stream.
type Dataset struct {
	Meta    Meta
	Traces  []TraceJSON
	Links   []LinkJSON
	Routers []RouterJSON
	Merged  []MergedLinkJSON
}

// Read decodes a JSONL stream.
func Read(r io.Reader) (*Dataset, error) {
	ds := &Dataset{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		var env envelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			return nil, fmt.Errorf("export: line %d: %w", lineNo, err)
		}
		switch env.Type {
		case KindMeta:
			if err := json.Unmarshal(env.Data, &ds.Meta); err != nil {
				return nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
		case KindTrace:
			var t TraceJSON
			if err := json.Unmarshal(env.Data, &t); err != nil {
				return nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
			ds.Traces = append(ds.Traces, t)
		case KindLink:
			var l LinkJSON
			if err := json.Unmarshal(env.Data, &l); err != nil {
				return nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
			ds.Links = append(ds.Links, l)
		case KindRouter:
			var rt RouterJSON
			if err := json.Unmarshal(env.Data, &rt); err != nil {
				return nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
			ds.Routers = append(ds.Routers, rt)
		case KindMergedLink:
			var ml MergedLinkJSON
			if err := json.Unmarshal(env.Data, &ml); err != nil {
				return nil, fmt.Errorf("export: line %d: %w", lineNo, err)
			}
			ds.Merged = append(ds.Merged, ml)
		default:
			return nil, fmt.Errorf("export: line %d: unknown type %q", lineNo, env.Type)
		}
	}
	return ds, sc.Err()
}
