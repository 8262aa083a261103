package scamper

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"bdrmap/internal/bgp"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{msgProbeReq, 1, 2, 3, 4, 0}
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %v != %v", got, payload)
	}
}

// TestFrameRoundTripLarge exercises the chunked-read path: frames larger
// than frameChunk (a trace request whose stop set holds 65535 addresses is
// ~256KiB) must round-trip, not panic at the first chunk boundary.
func TestFrameRoundTripLarge(t *testing.T) {
	for _, n := range []int{frameChunk, frameChunk + 100, 4*frameChunk + 9, maxFrame} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestReadFrameRejectsBadLengths(t *testing.T) {
	// Zero-length frame.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	if _, err := readFrame(&buf); err == nil {
		t.Error("zero-length frame accepted")
	}
	// Oversized frame.
	buf.Reset()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	buf.Write(hdr[:])
	if _, err := readFrame(&buf); err == nil {
		t.Error("oversized frame accepted")
	}
	// Truncated payload.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], 10)
	buf.Write(hdr[:])
	buf.Write([]byte{1, 2, 3})
	if _, err := readFrame(&buf); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated payload: err = %v", err)
	}
	// Hostile length prefix just under maxFrame with a trickle of data
	// must not allocate the full frame up front; it should fail with
	// ErrUnexpectedEOF once the stream dries up.
	buf.Reset()
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	buf.Write(hdr[:])
	buf.Write(make([]byte, 100))
	if _, err := readFrame(&buf); err != io.ErrUnexpectedEOF {
		t.Errorf("hostile length prefix: err = %v", err)
	}
}

func TestMsgEnvelope(t *testing.T) {
	var buf bytes.Buffer
	body := []byte{msgTraceRsp, 1, 0, 0, 0}
	if err := writeMsg(&buf, 42, body); err != nil {
		t.Fatal(err)
	}
	seq, got, err := readMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 || !bytes.Equal(got, body) {
		t.Fatalf("envelope round trip: seq=%d body=%v", seq, got)
	}

	// A flipped payload byte must be rejected as corrupt.
	buf.Reset()
	writeMsg(&buf, 7, body)
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff
	if _, _, err := readMsg(bytes.NewReader(raw)); err != errCorruptFrame {
		t.Fatalf("corrupt payload: err = %v", err)
	}

	// A flipped seq byte must also fail the checksum.
	buf.Reset()
	writeMsg(&buf, 7, body)
	raw = buf.Bytes()
	raw[5] ^= 0xff
	if _, _, err := readMsg(bytes.NewReader(raw)); err != errCorruptFrame {
		t.Fatalf("corrupt seq: err = %v", err)
	}

	// An envelope too short to hold a message type is corrupt, not a panic.
	buf.Reset()
	writeFrame(&buf, []byte{0, 0, 0, 0, 0, 0, 0, 0})
	if _, _, err := readMsg(&buf); err != errCorruptFrame {
		t.Fatalf("short envelope: err = %v", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	name, err := parseHello(buildHello("vp-atlanta"))
	if err != nil {
		t.Fatal(err)
	}
	if name != "vp-atlanta" {
		t.Fatalf("parsed %q", name)
	}
	for _, bad := range [][]byte{
		nil,
		{msgHello},
		{msgHello, 0},                // empty name
		{msgHello, 5, 'a', 'b'},      // name longer than body
		{msgHello, 1, 'a', 'b'},      // bytes past the name
		{msgProbeReq, 1, 'a'},        // wrong type
		buildHello("vp-atlanta")[:5], // truncated name
	} {
		if _, err := parseHello(bad); err == nil {
			t.Errorf("parseHello(%v) accepted", bad)
		}
	}
}

func agentWorld(t *testing.T) *Agent {
	t.Helper()
	n := topo.Generate(topo.TinyProfile(), 1)
	return &Agent{E: probe.New(n, bgp.NewTable(n)), VP: n.VPs[0]}
}

// serveConnPair runs the agent on one end of a pipe and returns the test's
// end after completing the hello/helloAck handshake.
func serveConnPair(t *testing.T, a *Agent) (net.Conn, chan error) {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- a.ServeConn(server) }()
	client.SetDeadline(time.Now().Add(5 * time.Second))
	seq, hello, err := readMsg(client)
	if err != nil || seq != 0 || hello[0] != msgHello {
		t.Fatalf("bad hello: %v %v", hello, err)
	}
	if _, err := parseHello(hello); err != nil {
		t.Fatalf("unparsable hello: %v", err)
	}
	if err := writeMsg(client, 0, []byte{msgHelloAck}); err != nil {
		t.Fatal(err)
	}
	client.SetDeadline(time.Time{})
	return client, done
}

func TestAgentRejectsUnknownMessage(t *testing.T) {
	a := agentWorld(t)
	client, done := serveConnPair(t, a)
	defer client.Close()
	if err := writeMsg(client, 1, []byte{0x7f}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("agent accepted unknown message type")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("agent hung on unknown message")
	}
}

func TestAgentRejectsShortRequests(t *testing.T) {
	for _, req := range [][]byte{
		{msgProbeReq, 1},                // short probe
		{msgTraceReq, 1, 2},             // short trace
		{msgAdvance, 1, 2, 3},           // short advance
		{msgTraceReq, 0, 0, 0, 1, 0, 9}, // stop-set count larger than payload
	} {
		a := agentWorld(t)
		client, done := serveConnPair(t, a)
		if err := writeMsg(client, 1, req); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("agent accepted malformed request %v", req)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("agent hung on %v", req)
		}
		client.Close()
	}
}

func TestAgentDropsCorruptFrame(t *testing.T) {
	a := agentWorld(t)
	client, done := serveConnPair(t, a)
	defer client.Close()
	// Hand-build a frame whose checksum does not verify.
	payload := make([]byte, envelope+1)
	payload[envelope] = msgBye
	binary.BigEndian.PutUint32(payload[0:4], 0xbad)
	if err := writeFrame(client, payload); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("agent trusted a corrupt frame")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("agent hung on corrupt frame")
	}
}

func TestAgentReplaysDuplicateSeq(t *testing.T) {
	a := agentWorld(t)
	client, done := serveConnPair(t, a)
	defer client.Close()
	defer func() { <-done }()

	req := make([]byte, 9)
	req[0] = msgAdvance
	binary.BigEndian.PutUint64(req[1:9], uint64(time.Second))
	client.SetDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 3; i++ { // original + two duplicates
		if err := writeMsg(client, 1, req); err != nil {
			t.Fatal(err)
		}
		seq, rsp, err := readMsg(client)
		if err != nil || seq != 1 || rsp[0] != msgAdvanced {
			t.Fatalf("attempt %d: seq=%d rsp=%v err=%v", i, seq, rsp, err)
		}
	}
	// The engine must have advanced exactly once despite three requests.
	if got := a.lane.Now(); got != time.Second {
		t.Fatalf("duplicate seq re-executed: clock = %v", got)
	}
	if execs := a.CountExecs(); execs[1] != 1 {
		t.Fatalf("execs[1] = %d, want 1", execs[1])
	}
	if got := a.Commands(); got != 1 {
		t.Fatalf("Commands() = %d after one execution and two replays", got)
	}
	client.Close()
}

func TestAgentCleanShutdownOnBye(t *testing.T) {
	a := agentWorld(t)
	client, done := serveConnPair(t, a)
	defer client.Close()
	if err := writeMsg(client, 1, []byte{msgBye}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("bye produced error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("agent hung on bye")
	}
}

func TestAgentCleanShutdownOnEOF(t *testing.T) {
	a := agentWorld(t)
	client, done := serveConnPair(t, a)
	client.Close()
	select {
	case err := <-done:
		if err != nil && err != io.EOF {
			t.Fatalf("EOF produced unexpected error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("agent hung on EOF")
	}
}

// TestControllerCloseDuringHandshake races Close against in-flight
// handshakes, of the session's VP and of others: a hello finishing just as
// the listener shuts down must be discarded cleanly, never panic or leave a
// connection open (run under -race in the chaos CI job).
func TestControllerCloseDuringHandshake(t *testing.T) {
	for i := 0; i < 25; i++ {
		ctrl, err := Listen("127.0.0.1:0", "vp-0", obs.New())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				conn, err := net.Dial("tcp", ctrl.Addr())
				if err != nil {
					return
				}
				defer conn.Close()
				writeMsg(conn, 0, buildHello(fmt.Sprintf("vp-%d", j)))
				conn.SetReadDeadline(time.Now().Add(time.Second))
				readMsg(conn)
			}(j)
		}
		ctrl.Close()
		wg.Wait()
	}
}

func TestControllerRejectsBadHello(t *testing.T) {
	ctrl, reg := listenTest(t, "vp-a")
	conn, err := net.Dial("tcp", ctrl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeMsg(conn, 0, []byte{msgProbeReq, 0, 0, 0, 0, 0}) // not a hello
	// The controller must close the connection without opening the
	// session — under fault injection the agent simply redials.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := readMsg(conn); err == nil {
		t.Fatal("controller answered a session without hello")
	}
	waitCounter(t, reg, "remote.hello_failed", 1)
}

// TestControllerRejectsForeignHello: a controller serves one VP, so a
// well-formed hello naming another is hung up on, counted, and opens
// nothing.
func TestControllerRejectsForeignHello(t *testing.T) {
	ctrl, reg := listenTest(t, "vp-a")
	conn, err := net.Dial("tcp", ctrl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeMsg(conn, 0, buildHello("vp-b"))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, body, err := readMsg(conn); err == nil {
		t.Fatalf("controller for vp-a answered vp-b's hello with %v", body)
	}
	waitCounter(t, reg, "remote.hello_failed", 1)
	if err := ctrl.Wait(30 * time.Millisecond); err == nil {
		t.Fatal("a foreign hello opened the session")
	}
}

// waitCounter polls reg until the named counter reaches want.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for reg.Snapshot().Counter(name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, reg.Snapshot().Counter(name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestControllerResumesSession: a redial mid-run resumes the open session —
// counted once in remote.resume — and the commands around the cut all
// complete on it.
func TestControllerResumesSession(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 2)
	e := probe.New(n, bgp.NewTable(n))
	rp, reg := listenTest(t, n.VPs[0].Name)

	agent := &Agent{E: e, VP: n.VPs[0]}
	// Cut the first connection after the 3rd agent write (hello + two
	// responses), forcing a redial mid-run.
	dialed, writes := 0, 0
	dial := dialThrough(func(c net.Conn) net.Conn {
		dialed++
		return &cutAfterConn{Conn: c, when: func() bool { writes++; return writes == 3 }}
	})
	done := make(chan error, 1)
	go func() { done <- agent.DialRetry(rp.Addr(), dial) }()
	if err := rp.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	tab := bgp.NewTable(n)
	dst := tab.Prefixes()[0].First() + 1
	var traces []probe.TraceResult
	for i := 0; i < 4; i++ {
		traces = append(traces, rp.Trace(dst, nil))
	}
	if err := rp.Err(); err != nil {
		t.Fatalf("session lost despite resume: %v", err)
	}
	for i, tr := range traces {
		if len(tr.Hops) == 0 {
			t.Fatalf("trace %d empty after resume", i)
		}
	}
	if dialed < 2 {
		t.Fatalf("agent dialed %d times; cut should force a redial", dialed)
	}
	if got := reg.Snapshot().Counter("remote.resume"); got != 1 {
		t.Errorf("remote.resume = %d, want 1", got)
	}
	rp.Close()
	if err := <-done; err != nil {
		t.Fatalf("agent exited with error: %v", err)
	}
}

// dialThrough is a DialRetry dial that wraps every connection it opens.
func dialThrough(wrap func(net.Conn) net.Conn) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return wrap(c), nil
	}
}

// dialTCP is a DialRetry dial with no faults.
var dialTCP = dialThrough(func(c net.Conn) net.Conn { return c })

// cutAfterConn closes itself right before the write on which when() fires.
type cutAfterConn struct {
	net.Conn
	when func() bool
}

func (c *cutAfterConn) Write(b []byte) (int, error) {
	if c.when() {
		c.Conn.Close()
		return 0, io.ErrClosedPipe
	}
	return c.Conn.Write(b)
}

func TestRemoteProberConcurrentUse(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 2)
	e := probe.New(n, bgp.NewTable(n))
	rp, _ := listenTest(t, n.VPs[0].Name)
	agent := &Agent{E: e, VP: n.VPs[0]}
	go agent.DialRetry(rp.Addr(), dialTCP)
	if err := rp.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Hammer the session from several goroutines; the prober must
	// serialize commands without interleaving frames.
	tab := bgp.NewTable(n)
	prefixes := tab.Prefixes()
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 20; i++ {
				p := prefixes[(g*20+i)%len(prefixes)]
				rp.Trace(p.First()+1, nil)
				rp.Probe(p.First()+1, probe.MethodICMPEcho)
			}
			errc <- rp.Err()
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errc; err != nil {
			t.Fatalf("transport error under concurrency: %v", err)
		}
	}
}

// TestAgentRejectsBackwardAdvance: an advance whose delta has the top bit
// set would move the device clock below zero, where the IP-ID background
// term depends on the platform's float-to-integer conversion; one that wraps
// the clock would do the same. The agent refuses both, as it refuses a short
// advance, and its clock stays where it was.
func TestAgentRejectsBackwardAdvance(t *testing.T) {
	a := namedAgent("vp-x")
	advance := func(d time.Duration) []byte {
		req := make([]byte, 9)
		req[0] = msgAdvance
		binary.BigEndian.PutUint64(req[1:9], uint64(d))
		return req
	}
	if _, err := a.handle(advance(time.Second)); err != nil {
		t.Fatalf("a one-second advance: %v", err)
	}
	for _, d := range []time.Duration{
		math.MinInt64, -1, -2562047 * time.Hour,
		math.MaxInt64, // forward, but past the end of the clock
	} {
		if rsp, err := a.handle(advance(d)); err == nil {
			t.Errorf("advance %v: the agent answered %v", d, rsp)
		}
		if got := a.lane.Now(); got != time.Second {
			t.Fatalf("advance %v moved the clock to %v", d, got)
		}
	}
}

// namedAgent is an agent on its own tiny-world engine whose VP carries the
// given name.
func namedAgent(name string) *Agent {
	n := topo.Generate(topo.TinyProfile(), 1)
	vp := *n.VPs[0]
	vp.Name = name
	return &Agent{E: probe.New(n, bgp.NewTable(n)), VP: &vp}
}

// listenTest starts a controller for vp that the test's cleanup closes.
func listenTest(t *testing.T, vp string) (*RemoteProber, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	rp, err := Listen("127.0.0.1:0", vp, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rp.Close() })
	return rp, reg
}

// TestWaitTimeout: a wait for an agent that never dials fails on time and
// leaves the session to form later — an agent arriving after it still
// opens it for the next wait.
func TestWaitTimeout(t *testing.T) {
	rp, _ := listenTest(t, "vp-late")
	start := time.Now()
	if err := rp.Wait(30 * time.Millisecond); err == nil {
		t.Fatal("session opened by an agent that never dialed")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("30ms wait took %v", d)
	}
	go namedAgent("vp-late").DialRetry(rp.Addr(), dialTCP)
	if err := rp.Wait(5 * time.Second); err != nil {
		t.Fatalf("session swallowed by the timed-out wait: %v", err)
	}
}

// TestClaimResumeVersusReplacement: a redial of an agent whose session is
// open resumes it: remote.resume counts it once and the session keeps its
// clock. A controller serves one session, so there is no replacement left
// to tell apart from a resume.
func TestClaimResumeVersusReplacement(t *testing.T) {
	rp, reg := listenTest(t, "vp-x")
	// Cut the first connection on the agent's 2nd write (its first
	// response), forcing a redial with the session still open.
	writes := 0
	dial := dialThrough(func(c net.Conn) net.Conn {
		return &cutAfterConn{Conn: c, when: func() bool { writes++; return writes == 2 }}
	})
	done := make(chan error, 1)
	go func() { done <- namedAgent("vp-x").DialRetry(rp.Addr(), dial) }()
	if err := rp.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	rp.Advance(time.Second)
	rp.Advance(time.Second)
	if err := rp.Err(); err != nil {
		t.Fatalf("session lost despite resume: %v", err)
	}
	if got := reg.Snapshot().Counter("remote.resume"); got != 1 {
		t.Errorf("remote.resume = %d, want 1", got)
	}
	if now := rp.Now(); now != 2*time.Second {
		t.Errorf("resumed session's clock = %v, want 2s", now)
	}
	rp.Close()
	if err := <-done; err != nil {
		t.Fatalf("agent exited with error: %v", err)
	}
}

// TestControllerCloseEndsClaimsAndOrphans: Close fails a pending Wait at
// once, and says bye to — or hangs up on — a session that completed its
// handshake but never ran a command. Either way the session is closed.
func TestControllerCloseEndsClaimsAndOrphans(t *testing.T) {
	pending, _ := listenTest(t, "vp-nobody")
	waited := make(chan error, 1)
	go func() { waited <- pending.Wait(time.Minute) }()
	time.Sleep(10 * time.Millisecond) // let the wait block; Close must wake it either way
	pending.Close()
	select {
	case err := <-waited:
		if err == nil {
			t.Error("wait on a closed controller succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a waiter blocked")
	}

	idle, _ := listenTest(t, "vp-orphan")
	conn, err := net.Dial("tcp", idle.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeMsg(conn, 0, buildHello("vp-orphan")); err != nil {
		t.Fatal(err)
	}
	if _, ack, err := readMsg(conn); err != nil || ack[0] != msgHelloAck {
		t.Fatalf("handshake: %v %v", ack, err)
	}
	if err := idle.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	idle.Close()
	if _, body, err := readMsg(conn); err == nil && body[0] != msgBye {
		t.Fatalf("idle session got %v after Close", body)
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("idle session still open after Close")
	}
	if err := idle.Wait(time.Second); err == nil {
		t.Error("wait on a closed controller succeeded")
	}
}

// TestAgentDropsStalledFrame: a frame that begins but never completes (a
// length prefix corrupted upward) must cost the agent its connection, not
// park it forever while the controller retries into the void.
func TestAgentDropsStalledFrame(t *testing.T) {
	a := agentWorld(t)
	client, done := serveConnPair(t, a)
	defer client.Close()
	// The agent may idle between commands for as long as it likes …
	time.Sleep(3 * helloTimeout)
	// … but not inside one: a header promising 64KiB, then 8 bytes.
	if _, err := client.Write([]byte{0, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatalf("agent gave up while idle: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled frame ended the session cleanly")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("agent parked inside a stalled frame")
	}
}
