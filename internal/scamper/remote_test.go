package scamper

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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
	if got := a.E.Now(); got != time.Second {
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

// TestRetryDefaults pins the retry knobs' zero value to "use the default".
func TestRetryDefaults(t *testing.T) {
	if got := (Hardening{}).withDefaults().RetryBudget; got != 8 {
		t.Errorf("zero RetryBudget = %d, want default 8", got)
	}
	if got := (DialOptions{}).withDefaults().MaxRedials; got != 8 {
		t.Errorf("zero MaxRedials = %d, want default 8", got)
	}
}

// TestControllerCloseDuringHandshake races Close against in-flight
// handshakes: a session finishing its hello just as the dispatcher shuts
// down must be discarded cleanly, never panic delivering to a closed
// channel (run under -race in the chaos CI job).
func TestControllerCloseDuringHandshake(t *testing.T) {
	for i := 0; i < 25; i++ {
		ctrl, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctrl.SetObs(obs.New())
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
	ctrl, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	reg := obs.New()
	ctrl.SetObs(reg)
	conn, err := net.Dial("tcp", ctrl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeMsg(conn, 0, []byte{msgProbeReq, 0, 0, 0, 0, 0}) // not a hello
	// The controller must close the connection without creating a
	// session — a failed handshake never surfaces through Claim,
	// because under fault injection the agent simply redials.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := readMsg(conn); err == nil {
		t.Fatal("controller answered a session without hello")
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.Snapshot().Counter("remote.hello_failed") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hello failure not counted")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestControllerResumesSession(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 2)
	e := probe.New(n, bgp.NewTable(n))
	ctrl, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	agent := &Agent{E: e, VP: n.VPs[0]}
	// Cut the first connection after the 3rd agent write (hello + two
	// responses), forcing a redial mid-run.
	dialed, writes := 0, 0
	dial := dialThrough(func(c net.Conn) net.Conn {
		dialed++
		return &cutAfterConn{Conn: c, when: func() bool { writes++; return writes == 3 }}
	})
	done := make(chan error, 1)
	go func() {
		done <- agent.DialRetry(ctrl.Addr(), DialOptions{Dial: dial})
	}()

	rp, err := ctrl.Claim(agent.VP.Name, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rp.SetHardening(Hardening{FrameTimeout: time.Second, RetryBudget: 6,
		BackoffBase: time.Millisecond, BackoffMax: 8 * time.Millisecond, ResumeWait: 5 * time.Second})

	tab := bgp.NewTable(n)
	dst := tab.Prefixes()[0].First() + 1
	var traces []probe.TraceResult
	for i := 0; i < 4; i++ {
		traces = append(traces, rp.Trace(dst, nil, nil))
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
	rp.Close()
	if err := <-done; err != nil {
		t.Fatalf("agent exited with error: %v", err)
	}
}

// dialThrough is a DialOptions.Dial that wraps every connection it opens.
func dialThrough(wrap func(net.Conn) net.Conn) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return wrap(c), nil
	}
}

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
	ctrl, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	agent := &Agent{E: e, VP: n.VPs[0]}
	go agent.DialRetry(ctrl.Addr(), DialOptions{})
	rp, err := ctrl.Claim(agent.VP.Name, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	// Hammer the session from several goroutines; the prober must
	// serialize commands without interleaving frames.
	tab := bgp.NewTable(n)
	prefixes := tab.Prefixes()
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 20; i++ {
				p := prefixes[(g*20+i)%len(prefixes)]
				rp.Trace(p.First()+1, nil, nil)
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

// namedAgent is an agent on its own tiny-world engine whose VP carries the
// given name and whose clock starts at now, so a session can be told apart
// by what its prober's Now reads.
func namedAgent(name string, now time.Duration) *Agent {
	n := topo.Generate(topo.TinyProfile(), 1)
	vp := *n.VPs[0]
	vp.Name = name
	e := probe.New(n, bgp.NewTable(n))
	e.Advance(now)
	return &Agent{E: e, VP: &vp}
}

func listenTest(t *testing.T) (*Controller, *obs.Registry) {
	t.Helper()
	ctrl, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	reg := obs.New()
	ctrl.SetObs(reg)
	return ctrl, reg
}

// TestClaimRoutesByName: session identity is the VP name, not arrival
// order. A is claimed first but B handshakes first; each claimer still gets
// its own agent, and B's arrival only wakes A's claimer to look again.
func TestClaimRoutesByName(t *testing.T) {
	ctrl, _ := listenTest(t)
	a, b := namedAgent("vp-a", time.Second), namedAgent("vp-b", 2*time.Second)

	type claimed struct {
		rp  *RemoteProber
		err error
	}
	gotA := make(chan claimed, 1)
	go func() {
		rp, err := ctrl.Claim("vp-a", 5*time.Second)
		gotA <- claimed{rp, err}
	}()
	go b.DialRetry(ctrl.Addr(), DialOptions{})
	rpB, err := ctrl.Claim("vp-b", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rpB.Close()
	select {
	case c := <-gotA:
		t.Fatalf("claim for vp-a returned (%v, %v) before vp-a dialed", c.rp, c.err)
	default:
	}
	go a.DialRetry(ctrl.Addr(), DialOptions{})
	ca := <-gotA
	if ca.err != nil {
		t.Fatal(ca.err)
	}
	defer ca.rp.Close()
	if ca.rp.Name() != "vp-a" || ca.rp.Now() != time.Second {
		t.Errorf("vp-a's claimer got %q at %v", ca.rp.Name(), ca.rp.Now())
	}
	if rpB.Name() != "vp-b" || rpB.Now() != 2*time.Second {
		t.Errorf("vp-b's claimer got %q at %v", rpB.Name(), rpB.Now())
	}
}

// TestClaimTimeout: a claim for a name that never dials fails on time and
// leaves nothing behind — an agent arriving later goes to the next claim,
// not to the abandoned one.
func TestClaimTimeout(t *testing.T) {
	ctrl, _ := listenTest(t)
	start := time.Now()
	if rp, err := ctrl.Claim("vp-late", 30*time.Millisecond); err == nil {
		t.Fatalf("claimed %q from an agent that never dialed", rp.Name())
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("30ms claim took %v", d)
	}
	go namedAgent("vp-late", 0).DialRetry(ctrl.Addr(), DialOptions{})
	rp, err := ctrl.Claim("vp-late", 5*time.Second)
	if err != nil {
		t.Fatalf("session swallowed by the timed-out claim: %v", err)
	}
	rp.Close()
}

// TestClaimResumeVersusReplacement: a redial of an agent whose session is
// open resumes it (remote.resume counts it, no new claim surfaces); once
// that session is closed, the next agent of the same name is a new session
// to claim.
func TestClaimResumeVersusReplacement(t *testing.T) {
	ctrl, reg := listenTest(t)
	first := namedAgent("vp-x", 0)
	// Cut the first connection on the agent's 2nd write (its first
	// response), forcing a redial with the session still open.
	writes := 0
	dial := dialThrough(func(c net.Conn) net.Conn {
		return &cutAfterConn{Conn: c, when: func() bool { writes++; return writes == 2 }}
	})
	done := make(chan error, 1)
	go func() { done <- first.DialRetry(ctrl.Addr(), DialOptions{Dial: dial}) }()
	rp, err := ctrl.Claim("vp-x", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rp.SetHardening(Hardening{FrameTimeout: time.Second, BackoffBase: time.Millisecond, BackoffMax: 8 * time.Millisecond})
	rp.Advance(time.Second)
	rp.Advance(time.Second)
	if err := rp.Err(); err != nil {
		t.Fatalf("session lost despite resume: %v", err)
	}
	if got := reg.Snapshot().Counter("remote.resume"); got != 1 {
		t.Errorf("remote.resume = %d, want 1", got)
	}
	if again, err := ctrl.Claim("vp-x", 30*time.Millisecond); err == nil {
		t.Fatalf("a resumed session surfaced as a new claim (%p vs %p)", again, rp)
	}
	rp.Close()
	if err := <-done; err != nil {
		t.Fatalf("agent exited with error: %v", err)
	}

	go namedAgent("vp-x", time.Minute).DialRetry(ctrl.Addr(), DialOptions{})
	next, err := ctrl.Claim("vp-x", 5*time.Second)
	if err != nil {
		t.Fatalf("replacement agent never surfaced: %v", err)
	}
	defer next.Close()
	if next == rp || next.Now() != time.Minute {
		t.Errorf("replacement claim returned the old session (now %v)", next.Now())
	}
	if got := reg.Snapshot().Counter("remote.resume"); got != 1 {
		t.Errorf("replacement counted as a resume: remote.resume = %d", got)
	}
}

// TestControllerCloseEndsClaimsAndOrphans: Close fails a pending claim at
// once and hangs up on a session that handshook but was never claimed.
func TestControllerCloseEndsClaimsAndOrphans(t *testing.T) {
	ctrl, _ := listenTest(t)
	conn, err := net.Dial("tcp", ctrl.Addr())
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

	pending := make(chan error, 1)
	go func() {
		_, err := ctrl.Claim("vp-nobody", time.Minute)
		pending <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the claim block; Close must wake it either way
	ctrl.Close()
	select {
	case err := <-pending:
		if err == nil {
			t.Error("claim on a closed controller succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left a claimer blocked")
	}
	// The orphan is told bye, or — if Close won the race with its
	// registration — simply hung up on. It is never left open.
	if _, body, err := readMsg(conn); err == nil && body[0] != msgBye {
		t.Fatalf("orphan session got %v after Close", body)
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatal("orphan session still open after Close")
	}
	if _, err := ctrl.Claim("vp-orphan", time.Second); err == nil {
		t.Error("claimed a session from a closed controller")
	}
}

// TestAgentDropsStalledFrame: a frame that begins but never completes (a
// length prefix corrupted upward) must cost the agent its connection, not
// park it forever while the controller retries into the void.
func TestAgentDropsStalledFrame(t *testing.T) {
	a := agentWorld(t)
	a.helloTimeout = 50 * time.Millisecond
	client, done := serveConnPair(t, a)
	defer client.Close()
	// The agent may idle between commands for as long as it likes …
	time.Sleep(3 * a.helloTimeout)
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
