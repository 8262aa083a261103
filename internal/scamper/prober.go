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

// Prober opens measurement timelines on behalf of the driver.
type Prober interface {
	// Name identifies the vantage point.
	Name() string
	// Open opens a measurement timeline whose clock reads start. A prober
	// that can open private timelines returns a new one on every call, so a
	// parallel run's traces are a pure function of the world and the
	// schedule, independent of goroutine interleaving. A §5.8 session has
	// only the device's timeline: it returns that one on every call, and
	// its clock reads what the device's does.
	Open(start time.Duration) Timeline
	// Err returns the first permanent session error; a prober with no
	// session to lose always returns nil.
	Err() error
}

// Timeline is one vantage point's measurement timeline: a probe.Lane, or a
// §5.8 device session.
type Timeline interface {
	// Trace runs a paced Paris traceroute toward dst, stopping early when a
	// hop responds from an address in stopSet.
	Trace(dst netx.Addr, stopSet map[netx.Addr]bool) probe.TraceResult
	// Source sends single alias-resolution probes and moves measurement
	// time forward (pacing).
	probe.Source
	// Now reads the simulated measurement clock. A remote session pays a
	// round trip for it, and reads zero once it is lost.
	Now() time.Duration
}

// LocalProber runs measurements directly against the simulation engine.
type LocalProber struct {
	E  *probe.Engine
	VP *topo.VP
}

// Name returns the vantage point name.
func (p LocalProber) Name() string { return p.VP.Name }

// Open opens a new lane on the engine.
func (p LocalProber) Open(start time.Duration) Timeline {
	return p.E.NewLane(p.VP, start)
}

// Err is always nil: the engine is in-process and cannot be lost.
func (p LocalProber) Err() error { return nil }

// PathSignature fingerprints the hop sequence a traceroute toward dst would
// observe right now, without sending probes: what cross-round replay
// (Config.State) validates a cached trace against.
func (p LocalProber) PathSignature(dst netx.Addr) uint64 {
	return p.E.PathSignature(p.VP, dst)
}

var (
	_ Prober   = LocalProber{}
	_ Timeline = (*probe.Lane)(nil)
)
