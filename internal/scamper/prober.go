// Package scamper is the measurement driver of the system: the analogue of
// the paper's scamper + bdrmap driver (§5.3, §5.8). It turns the public BGP
// view into a probing plan (address blocks per target AS), runs Paris
// traceroutes with a doubletree-style stop set and the up-to-five-addresses
// retry rule, schedules alias resolution over the observed addresses, and
// assembles everything into a Dataset the inference core consumes.
//
// Probing runs through a Prober interface with two implementations: a
// local one wrapping the simulation engine directly — the one adapter from
// an engine and a vantage point to a prober — and a remote one that
// forwards commands over a TCP control protocol to a thin agent running on
// a resource-limited device, mirroring the paper's split where the device
// only executes probes and the central system keeps all state.
package scamper

import (
	"time"

	"bdrmap/internal/netx"
	"bdrmap/internal/probe"
	"bdrmap/internal/topo"
)

// Prober executes measurements on behalf of the driver.
type Prober interface {
	// Name identifies the vantage point.
	Name() string
	// NewLane opens a private measurement timeline starting at start, so
	// that a parallel run's traces are a pure function of the world and the
	// schedule, independent of goroutine interleaving. A remote session has
	// only the device's timeline and returns nil.
	NewLane(start time.Duration) *probe.Lane
	// Trace runs a paced Paris traceroute toward dst, stopping early when a
	// hop responds from an address in stopSet, on lane's timeline — the
	// prober's one shared clock when lane is nil.
	Trace(dst netx.Addr, stopSet map[netx.Addr]bool, lane *probe.Lane) probe.TraceResult
	// Source sends single alias-resolution probes and moves measurement
	// time forward (pacing).
	probe.Source
	// Now reads the simulated measurement clock. A remote prober pays a
	// round trip for it, and reads zero once its session is lost.
	Now() time.Duration
	// Err returns the first permanent session error; a prober with no
	// session to lose always returns nil.
	Err() error
}

// LocalProber runs measurements directly against the simulation engine.
type LocalProber struct {
	E  *probe.Engine
	VP *topo.VP
}

// Name returns the vantage point name.
func (p LocalProber) Name() string { return p.VP.Name }

// NewLane opens a worker-private measurement timeline on the engine.
func (p LocalProber) NewLane(start time.Duration) *probe.Lane {
	return p.E.NewLane(start)
}

// Trace runs one traceroute, paced at ~100 packets/second like the paper's
// deployments.
func (p LocalProber) Trace(dst netx.Addr, stopSet map[netx.Addr]bool, lane *probe.Lane) probe.TraceResult {
	return p.E.TracerouteLane(p.VP, dst, stopFunc(stopSet), lane)
}

func stopFunc(stopSet map[netx.Addr]bool) func(netx.Addr) bool {
	if stopSet == nil {
		return nil
	}
	return func(a netx.Addr) bool { return stopSet[a] }
}

// Probe sends one probe.
func (p LocalProber) Probe(target netx.Addr, m probe.Method) probe.Response {
	return p.E.Probe(p.VP, target, m)
}

// Advance moves the simulated clock.
func (p LocalProber) Advance(d time.Duration) { p.E.Advance(d) }

// Now reads the engine's simulated clock.
func (p LocalProber) Now() time.Duration { return p.E.Now() }

// Err is always nil: the engine is in-process and cannot be lost.
func (p LocalProber) Err() error { return nil }

// PathSignature fingerprints the hop sequence a traceroute toward dst would
// observe right now, without sending probes: what cross-round replay
// (Config.State) validates a cached trace against.
func (p LocalProber) PathSignature(dst netx.Addr) uint64 {
	return p.E.PathSignature(p.VP, dst)
}

var _ Prober = LocalProber{}
