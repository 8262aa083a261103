package scamper

import (
	"testing"
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
)

func TestConfigWithDefaults(t *testing.T) {
	cases := []struct {
		name    string
		in      Config
		private bool
		want    Config
	}{
		{"zero selects paper params",
			Config{}, true,
			Config{MaxAddrsPerBlock: 5, Workers: 4}},
		{"zero on a shared timeline is one worker",
			Config{}, false,
			Config{MaxAddrsPerBlock: 5, Workers: 1}},
		{"explicit values survive",
			Config{MaxAddrsPerBlock: 2, Workers: 1, DisableStopSet: true, DisableAlias: true}, true,
			Config{MaxAddrsPerBlock: 2, Workers: 1, DisableStopSet: true, DisableAlias: true}},
		{"explicit workers survive on a shared timeline",
			Config{Workers: 4}, false,
			Config{MaxAddrsPerBlock: 5, Workers: 4}},
		{"negative values fall back",
			Config{MaxAddrsPerBlock: -1, Workers: -3}, true,
			Config{MaxAddrsPerBlock: 5, Workers: 4}},
	}
	for _, c := range cases {
		if got := c.in.withDefaults(c.private); got != c.want {
			t.Errorf("%s: withDefaults(%v) = %+v, want %+v", c.name, c.private, got, c.want)
		}
	}
}

// traceCounter counts the timelines a run traces on: the driver's workers
// each trace on one. It wraps every distinct timeline its prober opens
// once, so a prober that returns one timeline still does.
type traceCounter struct {
	Prober
	opened map[Timeline]*tracedTimeline
}

type tracedTimeline struct {
	Timeline
	traces int
}

func (c *traceCounter) Open(start time.Duration) Timeline {
	tl := c.Prober.Open(start)
	if c.opened == nil {
		c.opened = make(map[Timeline]*tracedTimeline)
	}
	if c.opened[tl] == nil {
		c.opened[tl] = &tracedTimeline{Timeline: tl}
	}
	return c.opened[tl]
}

func (t *tracedTimeline) Trace(dst netx.Addr, stopSet map[netx.Addr]bool, prior []probe.Hop) probe.TraceResult {
	t.traces++
	return t.Timeline.Trace(dst, stopSet, prior)
}

// workers counts the timelines traced on.
func (c *traceCounter) workers() int {
	n := 0
	for _, tl := range c.opened {
		if tl.traces > 0 {
			n++
		}
	}
	return n
}

// TestDefaultWorkersFollowLanes: a zero Workers runs four workers on a
// local prober and one on a §5.8 session, which has one timeline — and that
// one worker sends the agent exactly the commands an explicit one-worker
// run does.
func TestDefaultWorkersFollowLanes(t *testing.T) {
	n, e, view, hosts := setup(t, 9)
	local := &traceCounter{Prober: LocalProber{E: e, VP: n.VPs[0]}}
	(&Driver{View: view, Prober: local, HostASNs: hosts}).Run()
	if got := local.workers(); got != 4 {
		t.Errorf("local run with zero Workers ran %d workers, want 4", got)
	}

	remote := func(workers int) (lanes int, commands int64) {
		n, e, view, hosts := setup(t, 9)
		rp, err := Listen("127.0.0.1:0", n.VPs[0].Name, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer rp.Close()
		agent := &Agent{E: e, VP: n.VPs[0]}
		done := make(chan error, 1)
		go func() { done <- agent.DialRetry(rp.Addr(), dialTCP) }()
		if err := rp.Wait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		p := &traceCounter{Prober: rp}
		(&Driver{View: view, Prober: p, HostASNs: hosts, Cfg: Config{Workers: workers}}).Run()
		if err := rp.Err(); err != nil {
			t.Fatalf("transport error: %v", err)
		}
		rp.Close()
		if err := <-done; err != nil {
			t.Fatalf("agent exited with error: %v", err)
		}
		return p.workers(), agent.Commands()
	}
	lanes, got := remote(0)
	if lanes != 1 {
		t.Errorf("remote run with zero Workers ran %d workers, want 1", lanes)
	}
	if _, want := remote(1); got != want {
		t.Errorf("remote run with zero Workers sent %d commands, an explicit one-worker run %d", got, want)
	}
}
