package scamper

// Property tests for the hardened remote-control protocol: for any healing
// fault schedule, every command executes exactly once on the agent (the
// retry path may re-SEND but must never re-EXECUTE), the measurement the
// controller assembles is byte-identical to a fault-free session, and the
// simulated clock never runs backwards relative to the clean run.

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"bdrmap/internal/bgp"
	"bdrmap/internal/faults"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// chaosRun drives a fixed command schedule (a trace sweep with clock
// advances) through a controller/agent pair over loopback TCP behind a
// fault injector, and returns the serialized results, the agent's
// per-sequence execution counts, and the final simulated clock.
func chaosRun(t *testing.T, spec string) (out string, execs map[uint32]int, clk time.Duration, reg *obs.Registry) {
	t.Helper()
	sp, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(sp)

	n := topo.Generate(topo.TinyProfile(), 7)
	tab := bgp.NewTable(n)
	eng := probe.New(n, tab)

	reg = obs.New()
	rp, err := Listen("127.0.0.1:0", n.VPs[0].Name, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	agent := &Agent{E: eng, VP: n.VPs[0]}
	done := make(chan error, 1)
	go func() { done <- agent.DialRetry(rp.Addr(), inj.DialFunc) }()
	if err := rp.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	for _, p := range tab.Prefixes() {
		res := rp.Trace(p.First()+1, nil, nil)
		fmt.Fprintf(&b, "%v %v %v:", res.Dst, res.Reached, res.Stopped)
		for _, h := range res.Hops {
			fmt.Fprintf(&b, " %d/%d/%v/%d", h.TTL, h.Type, h.Addr, h.IPID)
		}
		b.WriteByte('\n')
		rp.Advance(30 * time.Second)
	}
	clk = rp.Now()
	rp.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("agent did not shut down")
	}
	if err := rp.Err(); err != nil {
		t.Fatalf("healing schedule %q lost the session: %v", spec, err)
	}
	// A command counts once, when it executes: not again for its response,
	// a replayed duplicate, or the closing bye.
	execs = agent.CountExecs()
	if got := agent.Commands(); got != int64(len(execs)) {
		t.Errorf("Commands() = %d, but %d commands executed", got, len(execs))
	}
	return b.String(), execs, clk, reg
}

func TestChaosProperties(t *testing.T) {
	cleanOut, cleanExecs, cleanClk, _ := chaosRun(t, "")
	if len(cleanExecs) == 0 || cleanOut == "" {
		t.Fatal("clean run executed nothing")
	}

	specs := []string{
		"seed=11,drop=0.15,heal=20",
		"seed=23,corrupt=0.10,dup=0.10,heal=20",
		"seed=37,stall=0.05,stallfor=15ms,cut=0.03,heal=12",
		"seed=53,drop=0.05,corrupt=0.05,dup=0.05,cut=0.02,heal=15,rcorrupt=0.001,rcwindow=4096",
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			out, execs, clk, reg := chaosRun(t, spec)

			// Exactly-once: the retry path re-sends, the duplicate cache
			// replays — no sequence number may ever execute twice, and no
			// command may be skipped.
			for seq, n := range execs {
				if n != 1 {
					t.Errorf("seq %d executed %d times", seq, n)
				}
			}
			if len(execs) != len(cleanExecs) {
				t.Errorf("executed %d commands, clean run executed %d", len(execs), len(cleanExecs))
			}

			// The measurement itself must be unaffected by wire faults.
			if out != cleanOut {
				t.Errorf("faulted results diverge from fault-free run\nfaulted:\n%s\nclean:\n%s", out, cleanOut)
			}

			// Time only moves forward: retries and stalls may add simulated
			// probing time but can never subtract it.
			if clk < cleanClk {
				t.Errorf("faulted sim clock %v < fault-free %v", clk, cleanClk)
			}

			// The schedule must actually have exercised the recovery path.
			snap := reg.Snapshot()
			recovered := snap.Counter("remote.retry.read") +
				snap.Counter("remote.retry.write") +
				snap.Counter("remote.retry.corrupt") +
				snap.Counter("remote.resume") +
				snap.Counter("remote.hello_failed")
			if recovered == 0 {
				t.Errorf("spec %q injected no observable faults:\n%s", spec, snap.Format())
			}
			if lost := snap.Counter("remote.session_lost"); lost != 0 {
				t.Errorf("healing schedule lost %d session(s)", lost)
			}
		})
	}
}

// muteAfterHello lets the agent's first write (the hello) through, then
// swallows every subsequent write — commands still arrive and execute on
// the agent, but no response ever reaches the controller.
type muteAfterHello struct {
	net.Conn
	writes int
}

func (m *muteAfterHello) Write(b []byte) (int, error) {
	m.writes++
	if m.writes == 1 {
		return m.Conn.Write(b)
	}
	return len(b), nil
}

// TestChaosRetryBudgetIsHonored pins the retry bound: a command whose
// responses are swallowed forever fails the session after 1+retryBudget
// sends instead of retrying unboundedly — and even though every send
// reaches the agent, the duplicate cache keeps it at exactly one execution.
// It runs on the product constants: 13 sends at the 100ms frame timeout
// plus backoff, ≈1.4s per run.
func TestChaosRetryBudgetIsHonored(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 7)
	tab := bgp.NewTable(n)
	eng := probe.New(n, tab)

	rp, err := Listen("127.0.0.1:0", n.VPs[0].Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	agent := &Agent{E: eng, VP: n.VPs[0]}
	done := make(chan error, 1)
	go func() {
		done <- agent.DialRetry(rp.Addr(), dialThrough(func(c net.Conn) net.Conn { return &muteAfterHello{Conn: c} }))
	}()
	if err := rp.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	rp.Trace(tab.Prefixes()[0].First()+1, nil, nil)
	if rp.Err() == nil {
		t.Fatal("response black hole did not fail the session")
	}
	// 1 send + 12 retries at 100ms frame timeout each, plus backoff: a
	// budget violation instead retries forever and trips the test timeout;
	// this bound just catches gross overshoot.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("budget-bounded failure took %v", elapsed)
	}
	// Every send reached the agent, yet the command ran exactly once.
	if execs := agent.CountExecs(); execs[1] != 1 {
		t.Fatalf("execs[1] = %d, want exactly 1", execs[1])
	}
	rp.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("agent did not shut down")
	}
}
