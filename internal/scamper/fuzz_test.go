package scamper

// Fuzz targets for the remote-control wire format. The decoders sit on the
// trust boundary of §5.8 — the central system reads frames produced by
// agents on unreliable consumer links — so they must tolerate arbitrary
// bytes without panicking, over-allocating, or mis-framing.
//
// Run the full fuzzers locally with e.g.:
//
//	go test ./internal/scamper -run=NONE -fuzz=FuzzReadFrame -fuzztime=60s
//
// Seed corpora live in testdata/fuzz/<FuzzName>/.

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"bdrmap/internal/bgp"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

func FuzzReadFrame(f *testing.F) {
	// A well-formed message frame.
	var good bytes.Buffer
	_ = writeMsg(&good, 7, []byte{msgTraceReq, 1, 2, 3, 4})
	f.Add(good.Bytes())
	// A hostile length prefix claiming the 1MiB maximum with no body: the
	// chunked reader must fail on truncation instead of allocating it all.
	hostile := []byte{0x00, 0x10, 0x00, 0x00, 0xde, 0xad}
	f.Add(hostile)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})             // zero length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // over-limit length

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload) == 0 || len(payload) > maxFrame {
			t.Fatalf("readFrame accepted %d-byte payload outside (0, maxFrame]", len(payload))
		}
		// Whatever decoded must survive a re-encode round trip.
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := readFrame(&buf)
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("round trip mismatch: %v (err %v)", back, err)
		}
		// readMsg on the same frame must never panic; any error is fine.
		_, _, _ = readMsg(bytes.NewReader(data))
	})
}

func FuzzMsgCodec(f *testing.F) {
	f.Add(uint32(0), []byte{msgHello})
	f.Add(uint32(1), []byte{msgTraceRsp, 0, 0})
	f.Add(uint32(0xffffffff), []byte{msgBye})
	f.Fuzz(func(t *testing.T, seq uint32, body []byte) {
		if len(body) == 0 || len(body) > maxFrame-envelope {
			return
		}
		var buf bytes.Buffer
		if err := writeMsg(&buf, seq, body); err != nil {
			t.Fatalf("writeMsg: %v", err)
		}
		raw := append([]byte(nil), buf.Bytes()...)
		gotSeq, gotBody, err := readMsg(&buf)
		if err != nil {
			t.Fatalf("readMsg rejected its own encoding: %v", err)
		}
		if gotSeq != seq || !bytes.Equal(gotBody, body) {
			t.Fatalf("round trip: seq %d body %v != seq %d body %v", gotSeq, gotBody, seq, body)
		}
		// A single flipped payload byte must never verify — CRC32 detects
		// all 1-bit errors. (Flipping a length-prefix byte is a framing
		// error, not a checksum error, so only bytes past the 4-byte
		// prefix are interesting here.)
		idx := 4 + int(seq)%(len(raw)-4)
		raw[idx] ^= 0x40
		if _, _, err := readMsg(bytes.NewReader(raw)); err == nil {
			t.Fatalf("flipped byte %d still verified", idx)
		}
	})
}

func FuzzParseHello(f *testing.F) {
	f.Add(buildHello("vp01.sea"))
	f.Add(buildHello("x"))
	f.Add([]byte{msgHello, 0})
	f.Add([]byte{msgHello, 255, 'a'})
	f.Fuzz(func(t *testing.T, body []byte) {
		name, err := parseHello(body)
		if err != nil {
			return
		}
		if name == "" {
			t.Fatal("parseHello accepted an empty agent name")
		}
		// Sessions are routed by this name alone, so an accepted hello must
		// be exactly the encoding of its name: no second body may parse to
		// the same session.
		if !bytes.Equal(buildHello(name), body) {
			t.Fatalf("parseHello(%q) = %q, whose encoding is %q", body, name, buildHello(name))
		}
	})
}

// fuzzAgent is shared by every FuzzAgentHandle execution: building a world
// per input would drown the fuzzer in setup.
var fuzzAgent = sync.OnceValue(func() *Agent {
	n := topo.Generate(topo.TinyProfile(), 1)
	return &Agent{E: probe.New(n, bgp.NewTable(n)), VP: n.VPs[0]}
})

// FuzzAgentHandle feeds arbitrary command bodies to the device side: a
// malformed command is an error, never a panic — and the body is clipped to
// its length, so a handler that resliced past it would panic too.
func FuzzAgentHandle(f *testing.F) {
	f.Add([]byte{msgTraceReq, 10, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{msgTraceReq, 10, 0, 0, 1, 0, 2, 10, 0, 0, 2})       // stop set shorter than its count
	f.Add([]byte{msgTraceReq, 10, 0, 0, 1, 0, 0})                    // no prior count
	f.Add([]byte{msgTraceReq, 10, 0, 0, 1, 0, 0, 2, 1, 10, 0, 0, 2}) // prior shorter than its count
	// A prior of two time-exceeded hops, and one naming a type no hop has.
	f.Add([]byte{msgTraceReq, 10, 0, 0, 1, 0, 1, 10, 0, 0, 9, 2, 1, 10, 0, 0, 2, 1, 10, 0, 0, 3})
	f.Add([]byte{msgTraceReq, 10, 0, 0, 1, 0, 0, 1, 0x7f, 10, 0, 0, 2})
	f.Add([]byte{msgProbeReq, 10, 0, 0, 1, 0})
	f.Add([]byte{msgAdvance, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{msgAdvance, 0x80, 0, 0, 0, 0, 0, 0, 0}) // a negative delta is an error
	f.Add([]byte{msgClock})
	f.Add([]byte{msgSpanPull})
	f.Add([]byte{0x0e, 10, 0, 0}) // no message has type 0x0e: an unknown type is an error, not a panic
	f.Add([]byte{0x7f})
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) == 0 {
			return // readMsg never yields an empty body
		}
		rsp, err := fuzzAgent().handle(body[:len(body):len(body)])
		if err == nil && len(rsp) == 0 {
			t.Fatalf("handle(%v) returned neither a response nor an error", body)
		}
	})
}

// FuzzDecodeResponse feeds arbitrary device bytes to the controller-side
// response decoders — the direction §5.8 distrusts. They must not panic,
// a trace must never claim more hops than its bytes and the prior its
// request sent carry, and its spliced hops must be that prior's.
func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte{msgTraceRsp, 1, 0, 0, 1, 0, 1, 1, 1, 10, 0, 0, 1, 0, 7, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add([]byte{msgTraceRsp, 0, 0, 0, 0, 0xff, 0xff}) // hop count with no hops behind it
	// Two hops spliced from the prior, one live at TTL 3.
	f.Add([]byte{msgTraceRsp, 0, 1, 2, 1, 0, 1, 3, 1, 10, 0, 0, 3, 0, 7, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Add([]byte{msgTraceRsp, 0, 0, 4, 0, 0, 0}) // more spliced hops than the prior holds
	f.Add(make([]byte, 24))
	f.Add([]byte{msgClockRsp, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{})
	prior := []probe.Hop{
		{TTL: 1, Type: probe.HopTimeExceeded, Addr: 0x0a000001, RTT: time.Millisecond},
		{TTL: 2, Type: probe.HopTimeExceeded, Addr: 0x0a000002, RTT: 2 * time.Millisecond},
		{TTL: 3, Type: probe.HopTimeout},
	}
	f.Fuzz(func(t *testing.T, rsp []byte) {
		rsp = rsp[:len(rsp):len(rsp)]
		var res probe.TraceResult
		decodeTraceRsp(rsp, prior, &res)
		if max := int(res.Spliced) + (len(rsp)-7)/16; len(res.Hops) > 0 && len(res.Hops) > max {
			t.Fatalf("%d hops decoded from %d bytes and %d spliced", len(res.Hops), len(rsp), res.Spliced)
		}
		if int(res.Spliced) > len(prior) || !slices.Equal(res.Hops[:res.Spliced], prior[:res.Spliced]) {
			t.Fatalf("spliced %d hops %v from prior %v", res.Spliced, res.Hops, prior)
		}
		if r := decodeProbeRsp(rsp); len(rsp) < 24 && r != (probe.Response{}) {
			t.Fatalf("short probe response decoded to %+v", r)
		}
		if v := decodeUint64Rsp(rsp); len(rsp) < 9 && v != 0 {
			t.Fatalf("short clock/signature response decoded to %d", v)
		}
	})
}
