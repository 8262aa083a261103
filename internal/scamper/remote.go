package scamper

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// The remote control protocol (§5.8): resource-limited devices cannot hold
// the IP-to-AS tables, stop sets, and alias state bdrmap needs (~150MB),
// so the device runs only a thin probing agent (a few MB) that dials back
// to the central system and executes probe commands it receives.
//
// The transport is assumed hostile — home-gateway uplinks drop, stall,
// corrupt, and duplicate traffic, and the device may reboot mid-run — so
// every frame is checksummed and sequence-numbered:
//
//	frame   := length(uint32) payload
//	payload := crc32(uint32) seq(uint32) body
//	body    := type(uint8) ...
//
// The CRC (IEEE) covers seq+body. The controller assigns sequence numbers
// 1,2,3,… to commands and keeps exactly one in flight; responses echo the
// request's seq. The agent remembers the last (seq, response) pair and
// replays the cached response when it sees a duplicate seq, so controller
// retries never re-execute a probe — which is what keeps a faulted run's
// measurement byte-identical to a clean one. Hello/helloAck use seq 0.
//
// Both ends ship together (every Agent is built in-process beside its
// controller), so there is one protocol version and the handshake carries
// only what its reader uses:
//
//	hello    := msgHello nameLen(uint8) name
//	helloAck := msgHelloAck
//
// A controller serves exactly one vantage point. The first hello naming it
// opens the session; every later one resumes it, attaching the new
// connection so a VP that drops mid-run does not re-probe completed
// targets. No session id crosses the wire: an agent whose helloAck was lost
// redials with no memory of the session and resumes all the same. A hello
// naming any other VP is hung up on.
const (
	msgHello    = 0x01
	msgTraceReq = 0x02
	msgTraceRsp = 0x03
	msgProbeReq = 0x04
	msgProbeRsp = 0x05
	msgAdvance  = 0x06
	msgAdvanced = 0x07
	msgBye      = 0x08
	msgHelloAck = 0x09
	msgClock    = 0x0a
	msgClockRsp = 0x0b
	msgSpanPull = 0x0c
	msgSpanRsp  = 0x0d
)

// maxFrame bounds a frame; a trace command carrying a full stop set is the
// largest message.
const maxFrame = 1 << 20

// frameChunk bounds a single payload allocation while reading: a hostile
// length prefix near maxFrame only costs memory as fast as the peer
// actually delivers bytes.
const frameChunk = 64 << 10

// envelope is the crc32+seq prefix every payload carries.
const envelope = 8

// errCorruptFrame marks a frame whose checksum (or envelope structure) did
// not verify; consumers retry rather than trust the contents.
var errCorruptFrame = errors.New("scamper: corrupt frame")

func writeFrame(w io.Writer, payload []byte) error {
	// A frame goes out in ONE Write call so that fault injectors (and real
	// kernels under memory pressure) see frame-granular writes: a dropped
	// or duplicated Write is a dropped or duplicated frame, never a
	// desynchronized stream.
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := w.Write(buf)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("scamper: bad frame length %d", n)
	}
	// Grow the buffer chunk by chunk instead of trusting the length prefix
	// with a single up-front allocation: a hostile prefix near maxFrame
	// only costs memory as fast as the peer actually delivers bytes.
	buf := make([]byte, min(n, frameChunk))
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	for len(buf) < n {
		k := min(n-len(buf), frameChunk)
		off := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// writeMsg wraps body in the checksummed, sequence-numbered envelope and
// writes it as one frame.
func writeMsg(w io.Writer, seq uint32, body []byte) error {
	payload := make([]byte, envelope+len(body))
	binary.BigEndian.PutUint32(payload[4:8], seq)
	copy(payload[envelope:], body)
	binary.BigEndian.PutUint32(payload[0:4], crc32.ChecksumIEEE(payload[4:]))
	return writeFrame(w, payload)
}

// readMsg reads one frame and verifies its envelope. A checksum mismatch or
// an envelope too short to carry a message returns errCorruptFrame.
func readMsg(r io.Reader) (seq uint32, body []byte, err error) {
	payload, err := readFrame(r)
	if err != nil {
		return 0, nil, err
	}
	if len(payload) < envelope+1 {
		return 0, nil, errCorruptFrame
	}
	if crc32.ChecksumIEEE(payload[4:]) != binary.BigEndian.Uint32(payload[0:4]) {
		return 0, nil, errCorruptFrame
	}
	return binary.BigEndian.Uint32(payload[4:8]), payload[envelope:], nil
}

// ---------------------------------------------------------------------------
// Hello / resume handshake

// Recovery tuning. Every agent runs in-process beside its controller and
// its engine is simulated, so frame processing is sub-millisecond: these
// loopback-scale values keep chaos runs fast while still dwarfing any
// injected stall.
const (
	// helloWait bounds how long an accepted connection may take to send its
	// hello before the controller drops it.
	helloWait = time.Second
	// helloTimeout bounds the agent's wait for the helloAck, and for a
	// command frame that has begun arriving to finish.
	helloTimeout = 250 * time.Millisecond
	// maxRedials bounds the agent's consecutive failed connection attempts;
	// the count resets whenever a handshake completes.
	maxRedials = 100
	// frameTimeout bounds each controller frame write and response wait.
	frameTimeout = 100 * time.Millisecond
	// retryBudget is the number of ADDITIONAL sends after a command's first.
	retryBudget = 12
	// resumeWait bounds how long a command waits for a reconnecting agent
	// before declaring the session lost.
	resumeWait = 2 * time.Second
)

// backoff is the pause before the nth retry (n >= 1), the agent's redials
// and the controller's resends alike: 1ms doubling to a 16ms cap.
func backoff(n int) time.Duration {
	return time.Millisecond << min(n-1, 4)
}

// buildHello encodes the agent's opening message: msgHello nameLen(1) name.
func buildHello(name string) []byte {
	return append([]byte{msgHello, byte(len(name))}, name...)
}

// parseHello decodes a hello body. It is a pure function so the fuzzer can
// hammer it directly.
func parseHello(body []byte) (name string, err error) {
	if len(body) < 3 || body[0] != msgHello || len(body) != 2+int(body[1]) {
		return "", fmt.Errorf("scamper: bad hello")
	}
	return string(body[2:]), nil
}

// ---------------------------------------------------------------------------
// Agent (device side)

// Agent executes probe commands against a local engine on behalf of a
// central controller. It keeps no measurement state beyond its timeline,
// one in-flight command and the last response (for duplicate-suppression
// replay), which is what lets it fit on a low-resource device.
type Agent struct {
	E  *probe.Engine
	VP *topo.VP
	// Spans, when set, records one "agent-session" span per completed
	// handshake (sim duration from the device clock, resume flag, and a
	// volatile command count). The controller pulls the log with
	// RemoteProber.PullSpans and grafts it into the run's span tree.
	Spans *obs.SpanLog

	// lane is the device's one timeline, opened at zero by the first
	// session and kept across redials. The agent serves one connection at
	// a time, so only the serving goroutine touches it.
	lane *probe.Lane

	mu       sync.Mutex
	peakBuf  int
	commands int64
	lastSeq  uint32
	lastRsp  []byte
	execs    map[uint32]int // per-seq execution count; must never exceed 1
	sessEnd  func()         // closes the current session span; idempotent
}

// StateBytes reports the approximate measurement state held by the agent:
// just its largest single command buffer.
func (a *Agent) StateBytes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peakBuf
}

// Commands returns how many commands the agent has executed. Replays of a
// cached response and the closing bye execute nothing and are not counted.
func (a *Agent) Commands() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.commands
}

// noteBuf tracks the largest command or response buffer held.
func (a *Agent) noteBuf(bufLen int) {
	a.mu.Lock()
	if bufLen > a.peakBuf {
		a.peakBuf = bufLen
	}
	a.mu.Unlock()
}

// cache records one executed command and its response for seq, so a
// duplicate command replays instead of re-executing.
func (a *Agent) cache(seq uint32, rsp []byte) {
	a.mu.Lock()
	a.commands++
	a.lastSeq = seq
	a.lastRsp = rsp
	if a.execs == nil {
		a.execs = make(map[uint32]int)
	}
	a.execs[seq]++
	a.mu.Unlock()
}

// timeline returns the device's timeline, opening it on first use.
func (a *Agent) timeline() *probe.Lane {
	if a.lane == nil {
		a.lane = a.E.NewLane(a.VP, 0)
	}
	return a.lane
}

// beginSession opens the session span and returns its (idempotent) end
// function. The simulated duration is read from the device clock, which
// only advances when a command actually executes — replayed duplicates
// don't move it — so session spans are deterministic for a fixed fault
// schedule. The command count is retry-timing-dependent and therefore
// volatile.
func (a *Agent) beginSession() func() {
	if a.Spans == nil {
		return func() {}
	}
	sp := a.Spans.Begin(0, "agent-session", a.VP.Name)
	a.mu.Lock()
	// A session that has already executed a command is being resumed.
	cmds, resume := a.commands, a.lastRsp != nil
	a.mu.Unlock()
	sp.SetAttr("resume", resume)
	start := a.timeline().Now()
	var once sync.Once
	end := func() {
		once.Do(func() {
			a.mu.Lock()
			delta := a.commands - cmds
			a.mu.Unlock()
			sp.SetAttr("~commands", delta)
			sp.AddSim(a.timeline().Now() - start)
			sp.End()
		})
	}
	a.mu.Lock()
	a.sessEnd = end
	a.mu.Unlock()
	return end
}

// spanDump closes the current session span (the pull is the session's
// last measurement-relevant command) and returns the completed span log
// as msgSpanRsp + JSONL.
func (a *Agent) spanDump() ([]byte, error) {
	a.mu.Lock()
	end := a.sessEnd
	a.mu.Unlock()
	if end != nil {
		end()
	}
	var buf bytes.Buffer
	buf.WriteByte(msgSpanRsp)
	if err := obs.WriteSpanJSONL(&buf, a.Spans.Records()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (a *Agent) cached(seq uint32) ([]byte, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.lastRsp != nil && seq == a.lastSeq {
		return a.lastRsp, true
	}
	return nil, false
}

// DialRetry connects to the controller at addr through dial — the fault
// seam: a run passes its injector's DialFunc, a test may wrap the
// connection it returns — and keeps reconnecting, resuming the session,
// across transport failures until the controller says bye or maxRedials
// consecutive attempts fail. This is the loop a deployed home device runs:
// reboots and line drops must not end the measurement.
func (a *Agent) DialRetry(addr string, dial func(addr string) (net.Conn, error)) error {
	fails := 0
	var lastErr error
	for {
		if fails > maxRedials {
			return lastErr
		}
		if fails > 0 {
			time.Sleep(backoff(fails))
		}
		conn, err := dial(addr)
		if err != nil {
			fails++
			lastErr = err
			continue
		}
		ended, progressed, err := a.serve(conn)
		conn.Close()
		if ended {
			return nil
		}
		if progressed {
			fails = 0
		}
		fails++
		lastErr = err
	}
}

// serve sends hello, waits for the ack, then executes commands.
// ended reports a clean bye; progressed reports a completed handshake
// (used by DialRetry to reset its failure budget).
func (a *Agent) serve(conn net.Conn) (ended, progressed bool, err error) {
	if err := writeMsg(conn, 0, buildHello(a.VP.Name)); err != nil {
		return false, false, err
	}
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	_, ack, err := readMsg(conn)
	if err != nil {
		return false, false, err
	}
	if len(ack) < 1 || ack[0] != msgHelloAck {
		return false, false, fmt.Errorf("scamper: bad hello ack")
	}
	progressed = true
	endSession := a.beginSession()
	defer endSession()

	cmds := &commandReader{conn: conn}
	for {
		cmds.idle()
		seq, req, err := readMsg(cmds)
		if err != nil {
			return false, progressed, err
		}
		a.noteBuf(len(req))
		if req[0] == msgBye {
			return true, progressed, nil
		}
		// A duplicate of the last command means our response was lost:
		// replay it without re-executing the probe.
		if rsp, ok := a.cached(seq); ok {
			if err := writeMsg(conn, seq, rsp); err != nil {
				return false, progressed, err
			}
			continue
		}
		rsp, err := a.handle(req)
		if err != nil {
			return false, progressed, err
		}
		a.noteBuf(len(rsp))
		a.cache(seq, rsp)
		if err := writeMsg(conn, seq, rsp); err != nil {
			return false, progressed, err
		}
	}
}

// commandReader reads command frames: the wait for a frame's first byte is
// unbounded (the device idles between commands), but a frame that has begun
// must finish within the hello timeout. A length prefix corrupted upward
// would otherwise park the agent inside a frame the controller never
// completes — it keeps retrying on a connection whose stream is now out of
// step — until the retry budget is spent; timing out drops the connection
// instead, and the redial resumes the session.
type commandReader struct {
	conn  net.Conn
	begun bool
}

// idle lifts the deadline until the next frame begins.
func (r *commandReader) idle() {
	r.begun = false
	r.conn.SetReadDeadline(time.Time{})
}

func (r *commandReader) Read(b []byte) (int, error) {
	n, err := r.conn.Read(b)
	if n > 0 && !r.begun {
		r.begun = true
		r.conn.SetReadDeadline(time.Now().Add(helloTimeout))
	}
	return n, err
}

// handle executes one command body and returns the response body.
func (a *Agent) handle(req []byte) ([]byte, error) {
	switch req[0] {
	case msgTraceReq:
		return a.handleTrace(req)
	case msgProbeReq:
		if len(req) < 6 {
			return nil, fmt.Errorf("scamper: short probe request")
		}
		target := netx.Addr(binary.BigEndian.Uint32(req[1:5]))
		m := probe.Method(req[5])
		r := a.timeline().Probe(target, m)
		rsp := make([]byte, 24)
		rsp[0] = msgProbeRsp
		if r.OK {
			rsp[1] = 1
		}
		binary.BigEndian.PutUint32(rsp[2:6], uint32(r.From))
		binary.BigEndian.PutUint16(rsp[6:8], r.IPID)
		binary.BigEndian.PutUint64(rsp[8:16], uint64(r.When))
		binary.BigEndian.PutUint64(rsp[16:24], uint64(r.RTT))
		return rsp, nil
	case msgAdvance:
		if len(req) < 9 {
			return nil, fmt.Errorf("scamper: short advance request")
		}
		d := time.Duration(binary.BigEndian.Uint64(req[1:9]))
		lane := a.timeline()
		if lane.Now()+d < lane.Now() {
			// A delta with the top bit set, or one that wraps the clock:
			// the device clock only moves forward.
			return nil, fmt.Errorf("scamper: advance %v moves the clock backward", d)
		}
		lane.Advance(d)
		return []byte{msgAdvanced}, nil
	case msgClock:
		rsp := make([]byte, 9)
		rsp[0] = msgClockRsp
		binary.BigEndian.PutUint64(rsp[1:9], uint64(a.timeline().Now()))
		return rsp, nil
	case msgSpanPull:
		return a.spanDump()
	default:
		return nil, fmt.Errorf("scamper: unknown message type %#x", req[0])
	}
}

// handleTrace runs a trace request:
// type dst(4) nStop(2) {addr(4)} nPrior(1) {type(1) addr(4)}.
// The prior is the controller's, by type and address per TTL from 1; the
// response carries the live hops only, and the controller splices the
// copied ones from its own prior.
func (a *Agent) handleTrace(req []byte) ([]byte, error) {
	if len(req) < 7 {
		return nil, fmt.Errorf("scamper: short trace request")
	}
	dst := netx.Addr(binary.BigEndian.Uint32(req[1:5]))
	nStop := int(binary.BigEndian.Uint16(req[5:7]))
	if len(req) < 7+4*nStop {
		return nil, fmt.Errorf("scamper: truncated stop set")
	}
	stop := make(map[netx.Addr]bool, nStop)
	for i := 0; i < nStop; i++ {
		stop[netx.Addr(binary.BigEndian.Uint32(req[7+4*i:]))] = true
	}
	off := 7 + 4*nStop
	if len(req) < off+1 || len(req) < off+1+5*int(req[off]) {
		return nil, fmt.Errorf("scamper: truncated prior")
	}
	var prior []probe.Hop
	if nPrior := int(req[off]); nPrior > 0 {
		prior = make([]probe.Hop, nPrior)
		for i := range prior {
			h := req[off+1+5*i:]
			prior[i] = probe.Hop{TTL: uint8(i + 1), Type: probe.HopType(h[0]), Addr: netx.Addr(binary.BigEndian.Uint32(h[1:5]))}
		}
	}
	res := a.timeline().Trace(dst, stop, prior)

	live := res.Hops[res.Spliced:]
	rsp := make([]byte, 0, 7+16*len(live))
	rsp = append(rsp, msgTraceRsp, boolByte(res.Reached), boolByte(res.Stopped), res.Spliced, res.Sent)
	rsp = binary.BigEndian.AppendUint16(rsp, uint16(len(live)))
	for _, h := range live {
		var hop [16]byte
		hop[0] = h.TTL
		hop[1] = byte(h.Type)
		binary.BigEndian.PutUint32(hop[2:6], uint32(h.Addr))
		binary.BigEndian.PutUint16(hop[6:8], h.IPID)
		binary.BigEndian.PutUint64(hop[8:16], uint64(h.RTT))
		rsp = append(rsp, hop[:]...)
	}
	return rsp, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// RemoteProber (central side)

// RemoteProber is the central system of §5.8 for one vantage point: it
// listens for that VP's agent and drives its one session over whichever
// connection the agent last opened. It is safe for concurrent use;
// commands are serialized, retried with bounded exponential backoff, and
// survive agent reconnects.
type RemoteProber struct {
	name   string
	ln     net.Listener
	reg    *obs.Registry
	opened chan struct{} // closed by the first handshake
	done   chan struct{} // closed by Close
	reconn chan net.Conn
	closed atomic.Bool

	opMu    sync.Mutex // serializes commands; guards conn, nextSeq
	conn    net.Conn
	nextSeq uint32

	mu       sync.Mutex // guards err, byte counts, and handing off on reconn
	bytesOut int64
	bytesIn  int64
	err      error

	resumes      *obs.Counter
	retryWrite   *obs.Counter
	retryRead    *obs.Counter
	retryCorrupt *obs.Counter
	backoffNs    *obs.Counter
	sessionLost  *obs.Counter
}

var _ Prober = (*RemoteProber)(nil)

// Listen starts the central side for vantage point vp on addr (use
// "127.0.0.1:0" for an ephemeral port), recording recovery metrics
// (remote.*) in reg. It accepts agents until Close.
func Listen(addr, vp string, reg *obs.Registry) (*RemoteProber, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &RemoteProber{
		name:         vp,
		ln:           ln,
		reg:          reg,
		opened:       make(chan struct{}),
		done:         make(chan struct{}),
		reconn:       make(chan net.Conn, 1),
		nextSeq:      1,
		resumes:      reg.Counter("remote.resume"),
		retryWrite:   reg.Counter("remote.retry.write"),
		retryRead:    reg.Counter("remote.retry.read"),
		retryCorrupt: reg.Counter("remote.retry.corrupt"),
		backoffNs:    reg.Counter("remote.retry.backoff_ns"),
		sessionLost:  reg.Counter("remote.session_lost"),
	}
	go p.accept()
	return p, nil
}

// Addr returns the listening address.
func (p *RemoteProber) Addr() string { return p.ln.Addr().String() }

// Wait blocks until the agent completes its first handshake, failing after
// timeout or once Close is called.
func (p *RemoteProber) Wait(timeout time.Duration) error {
	errClosed := errors.New("scamper: listener closed")
	if p.closed.Load() {
		return errClosed
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-p.opened:
		return nil
	case <-p.done:
		return errClosed
	case <-t.C:
		return fmt.Errorf("scamper: no session from agent %q within %v", p.name, timeout)
	}
}

func (p *RemoteProber) accept() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // Close stopped the listener
		}
		go p.handshake(conn)
	}
}

func (p *RemoteProber) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(helloWait))
	seq, body, err := readMsg(conn)
	if err == nil && seq != 0 {
		err = fmt.Errorf("scamper: bad hello")
	}
	var name string
	if err == nil {
		name, err = parseHello(body)
	}
	if err != nil || name != p.name {
		// A garbled or dropped hello only condemns this connection: the
		// agent redials and tries again. A hello naming another VP is not
		// this session's to resume.
		conn.Close()
		p.reg.Inc("remote.hello_failed")
		return
	}
	conn.SetReadDeadline(time.Time{})
	if err := writeMsg(conn, 0, []byte{msgHelloAck}); err != nil {
		conn.Close()
		return
	}
	p.attach(conn)
}

// attach hands a handshaken connection to the session: the first opens it,
// every later one resumes it. A newer connection replaces any pending one:
// the agent only redials after abandoning the old conn. Only attach sends
// on reconn, under mu, so after draining it the send never blocks.
func (p *RemoteProber) attach(conn net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		conn.Close()
		return
	}
	select {
	case <-p.opened:
		p.resumes.Add(1)
	default:
		close(p.opened)
	}
	select {
	case old := <-p.reconn:
		old.Close()
	default:
	}
	p.reconn <- conn
}

// Name returns the agent's vantage point name.
func (p *RemoteProber) Name() string { return p.name }

// BytesTransferred reports protocol traffic (out, in).
func (p *RemoteProber) BytesTransferred() (out, in int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytesOut, p.bytesIn
}

// Err returns the first permanent session error, if any. It never blocks
// on an in-flight command.
func (p *RemoteProber) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

func (p *RemoteProber) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.sessionLost.Add(1)
}

// Close stops the listener and ends the session: a best-effort bye on its
// newest connection, then the hang-up. A pending Wait fails.
func (p *RemoteProber) Close() error {
	p.mu.Lock()
	already := p.closed.Swap(true)
	p.mu.Unlock()
	if already {
		return nil
	}
	close(p.done)
	err := p.ln.Close()
	p.opMu.Lock()
	defer p.opMu.Unlock()
	// No attach can follow the closed flag, so one drain finds any pending
	// connection.
	select {
	case c := <-p.reconn:
		p.dropConn()
		p.conn = c
	default:
	}
	if p.conn != nil {
		p.conn.SetWriteDeadline(time.Now().Add(time.Second))
		_ = writeMsg(p.conn, p.nextSeq, []byte{msgBye})
		p.dropConn()
	}
	return err
}

// dropConn abandons the current connection after a transport fault.
func (p *RemoteProber) dropConn() {
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}

// awaitConn waits up to resumeWait for the agent to (re)connect.
func (p *RemoteProber) awaitConn() bool {
	select {
	case c := <-p.reconn:
		p.conn = c
		return true
	default:
	}
	timer := time.NewTimer(resumeWait)
	defer timer.Stop()
	select {
	case c := <-p.reconn:
		p.conn = c
		return true
	case <-timer.C:
		return false
	}
}

// roundTrip sends one command and reads its response, retrying across
// lost/corrupt frames and agent reconnects. Returns nil once the session
// is permanently lost (Err() reports why).
func (p *RemoteProber) roundTrip(body []byte, wantType byte) []byte {
	p.opMu.Lock()
	defer p.opMu.Unlock()
	if p.closed.Load() || p.Err() != nil {
		return nil
	}
	seq := p.nextSeq
	p.nextSeq++
	for attempt := 0; attempt <= retryBudget; attempt++ {
		if attempt > 0 {
			d := backoff(attempt)
			p.backoffNs.Add(int64(d))
			time.Sleep(d)
		}
		if p.conn == nil && !p.awaitConn() {
			p.fail(fmt.Errorf("scamper: agent %s did not resume within %v", p.name, resumeWait))
			return nil
		}
		// The agent may have reconnected behind our back (e.g. it saw a
		// corrupt frame and redialed); prefer the fresh connection.
		select {
		case c := <-p.reconn:
			p.dropConn()
			p.conn = c
		default:
		}
		p.conn.SetWriteDeadline(time.Now().Add(frameTimeout))
		if err := writeMsg(p.conn, seq, body); err != nil {
			p.retryWrite.Add(1)
			p.dropConn()
			continue
		}
		p.noteSent(len(body))
		rsp, err := p.awaitRsp(seq, wantType)
		if err == nil {
			p.noteRecv(len(rsp))
			return rsp
		}
		var nerr net.Error
		switch {
		case errors.Is(err, errCorruptFrame):
			// Framing survived (only payload bytes were damaged), so the
			// stream is still usable: resend on the same connection.
			p.retryCorrupt.Add(1)
		case errors.As(err, &nerr) && nerr.Timeout():
			// Response lost in transit; the connection itself is fine.
			p.retryRead.Add(1)
		default:
			p.retryRead.Add(1)
			p.dropConn()
		}
	}
	p.fail(fmt.Errorf("scamper: retry budget exhausted after %d attempts", retryBudget+1))
	return nil
}

// awaitRsp reads frames until the response for seq arrives, skipping stale
// duplicates from earlier retries.
func (p *RemoteProber) awaitRsp(seq uint32, wantType byte) ([]byte, error) {
	deadline := time.Now().Add(frameTimeout)
	for skips := 0; skips < 64; skips++ {
		p.conn.SetReadDeadline(deadline)
		got, rsp, err := readMsg(p.conn)
		if err != nil {
			return nil, err
		}
		if got < seq {
			continue // duplicate of an already-consumed response
		}
		if got != seq || rsp[0] != wantType {
			return nil, errCorruptFrame
		}
		return rsp, nil
	}
	return nil, errCorruptFrame
}

func (p *RemoteProber) noteSent(n int) {
	p.mu.Lock()
	p.bytesOut += int64(n + envelope + 4)
	p.mu.Unlock()
}

func (p *RemoteProber) noteRecv(n int) {
	p.mu.Lock()
	p.bytesIn += int64(n + envelope + 4)
	p.mu.Unlock()
}

// Open returns the session itself, whatever start is: the device has one
// timeline.
func (p *RemoteProber) Open(time.Duration) Timeline { return p }

// Trace runs a traceroute on the agent, on the agent's clock. The agent
// is sent prior's types and addresses and returns the hops it probed; the
// ones it copied are spliced from prior here.
func (p *RemoteProber) Trace(dst netx.Addr, stopSet map[netx.Addr]bool, prior []probe.Hop) probe.TraceResult {
	// A shorter prior only resumes earlier: the wire counts it in a byte.
	prior = prior[:min(len(prior), 255)]
	req := make([]byte, 7, 8+4*len(stopSet)+5*len(prior))
	req[0] = msgTraceReq
	binary.BigEndian.PutUint32(req[1:5], uint32(dst))
	binary.BigEndian.PutUint16(req[5:7], uint16(len(stopSet)))
	for a := range stopSet {
		req = binary.BigEndian.AppendUint32(req, uint32(a))
	}
	req = append(req, byte(len(prior)))
	for _, h := range prior {
		req = binary.BigEndian.AppendUint32(append(req, byte(h.Type)), uint32(h.Addr))
	}
	res := probe.TraceResult{Dst: dst}
	decodeTraceRsp(p.roundTrip(req, msgTraceRsp), prior, &res)
	return res
}

// Probe sends one alias-resolution probe via the agent.
func (p *RemoteProber) Probe(target netx.Addr, m probe.Method) probe.Response {
	req := make([]byte, 6)
	req[0] = msgProbeReq
	binary.BigEndian.PutUint32(req[1:5], uint32(target))
	req[5] = byte(m)
	return decodeProbeRsp(p.roundTrip(req, msgProbeRsp))
}

// Advance moves the agent's measurement clock.
func (p *RemoteProber) Advance(d time.Duration) {
	req := make([]byte, 9)
	req[0] = msgAdvance
	binary.BigEndian.PutUint64(req[1:9], uint64(d))
	p.roundTrip(req, msgAdvanced)
}

// Now reads the agent's simulated measurement clock, so the driver can
// report SimDuration for remote runs too. A lost session reads as zero.
func (p *RemoteProber) Now() time.Duration {
	return time.Duration(decodeUint64Rsp(p.roundTrip([]byte{msgClock}, msgClockRsp)))
}

// PullSpans retrieves the agent's session span records so the controller
// can graft them into the run's span tree. A lost session yields
// (nil, Err): span retrieval is best-effort telemetry and must never fail
// a run that produced a map.
func (p *RemoteProber) PullSpans() ([]obs.SpanRecord, error) {
	rsp := p.roundTrip([]byte{msgSpanPull}, msgSpanRsp)
	if rsp == nil {
		return nil, p.Err()
	}
	return obs.ReadSpanJSONL(bytes.NewReader(rsp[1:]))
}

// The response decoders are pure functions of bytes a device sent — the
// direction §5.8 distrusts — so the fuzzer can hammer them directly. A nil
// or short body (a lost session, a truncated response) decodes to the zero
// measurement.

// decodeTraceRsp fills res from a msgTraceRsp body, the answer to a
// request that sent prior:
// type reached(1) stopped(1) spliced(1) sent(1) nHops(2)
// {ttl(1) type(1) addr(4) ipid(2) rtt(8)}.
// res.Hops is prior's first spliced hops, then the hops on the wire. A
// response splicing more hops than prior holds decodes to no trace.
func decodeTraceRsp(rsp []byte, prior []probe.Hop, res *probe.TraceResult) {
	if len(rsp) < 7 || int(rsp[3]) > len(prior) {
		return
	}
	res.Reached = rsp[1] == 1
	res.Stopped = rsp[2] == 1
	res.Spliced, res.Sent = rsp[3], rsp[4]
	n := min(int(binary.BigEndian.Uint16(rsp[5:7])), (len(rsp)-7)/16)
	if k := int(res.Spliced) + n; k > 0 {
		res.Hops = append(make([]probe.Hop, 0, k), prior[:res.Spliced]...)
	}
	for i := range n {
		h := rsp[7+16*i:]
		res.Hops = append(res.Hops, probe.Hop{
			TTL:  h[0],
			Type: probe.HopType(h[1]),
			Addr: netx.Addr(binary.BigEndian.Uint32(h[2:6])),
			IPID: binary.BigEndian.Uint16(h[6:8]),
			RTT:  time.Duration(binary.BigEndian.Uint64(h[8:16])),
		})
	}
}

// decodeProbeRsp decodes a msgProbeRsp body:
// type ok(1) from(4) ipid(2) when(8) rtt(8).
func decodeProbeRsp(rsp []byte) probe.Response {
	if len(rsp) < 24 {
		return probe.Response{}
	}
	return probe.Response{
		OK:   rsp[1] == 1,
		From: netx.Addr(binary.BigEndian.Uint32(rsp[2:6])),
		IPID: binary.BigEndian.Uint16(rsp[6:8]),
		When: time.Duration(binary.BigEndian.Uint64(rsp[8:16])),
		RTT:  time.Duration(binary.BigEndian.Uint64(rsp[16:24])),
	}
}

// decodeUint64Rsp decodes the type value(8) body of a clock response.
func decodeUint64Rsp(rsp []byte) uint64 {
	if len(rsp) < 9 {
		return 0
	}
	return binary.BigEndian.Uint64(rsp[1:9])
}
