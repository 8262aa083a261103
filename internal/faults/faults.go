// Package faults is a deterministic, seedable fault-injection layer for the
// measurement pipeline: it wraps a transport (net.Conn) with frame drops,
// corruption, duplication, stalls, and mid-session disconnects, and feeds a
// separate probe-loss stream into the simulated probe engine. Every decision
// is a pure function of the Spec seed and the event sequence, so a run under
// a fixed fault schedule is exactly reproducible — which is what lets the
// chaos regression suite require byte-identical inferred borders against the
// fault-free goldens.
//
// A Spec is written as a comma-separated key=value list, e.g.
//
//	seed=42,drop=0.15,corrupt=0.05,dup=0.05,stall=0.1,stallfor=10ms,cut=0.01,heal=40
//
// The write-side fates (drop/corrupt/dup/stall/cut) apply per written frame
// in event order; heal=N quiets the injector after N injected faults (a
// "healing schedule" — the run degrades, recovers, and must still converge to
// the fault-free answer). kill=N permanently severs the agent after N frames
// and refuses redials, modelling the loss of a vantage point mid-run.
// Read-side corruption (rcorrupt/rcwindow) is keyed by absolute byte offset,
// so it is independent of how the kernel chunks reads. probedrop/probeheal
// drive the engine-level probe-response loss stream.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bdrmap/internal/netx"
)

// Spec describes one deterministic fault plan.
type Spec struct {
	// Seed drives every pseudo-random decision. Same seed, same schedule.
	Seed int64

	// Per-written-frame fate probabilities (they must sum to at most 1).
	Drop    float64 // frame silently lost
	Corrupt float64 // one payload byte flipped (framing preserved; CRC catches it)
	Dup     float64 // frame delivered twice
	Stall   float64 // frame delayed by StallFor before delivery
	Cut     float64 // connection torn down mid-session (the peer must resume)

	// StallFor is the delay applied to stalled frames (default 10ms). Keep
	// it well below the consumer's per-frame deadline or a stall turns into
	// a timeout-and-retry, which is a different (also supported) schedule.
	StallFor time.Duration

	// Heal quiets the write-side injector after this many injected faults
	// (0 = never heal). Chaos tests use healing schedules: the run must
	// recover and reproduce the fault-free output exactly.
	Heal int

	// Kill permanently severs the transport after this many written frames
	// and makes every redial fail (0 = never): permanent VP loss.
	Kill int

	// RCorrupt flips read-side bytes with this probability, but only within
	// the first RCWindow bytes of the stream (offset-keyed, so chunking
	// does not matter). RCWindow defaults to 16KiB when RCorrupt is set.
	RCorrupt float64
	RCWindow int64

	// ProbeDrop drops simulated probe responses in the engine with this
	// probability; ProbeHeal bounds the number of dropped responses
	// (0 = unlimited). This models plain packet loss (§5.3's retry rule).
	ProbeDrop float64
	ProbeHeal int
}

// Parse decodes the comma-separated key=value spec syntax.
func Parse(s string) (Spec, error) {
	var sp Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return sp, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return sp, fmt.Errorf("faults: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			sp.Seed, err = strconv.ParseInt(v, 10, 64)
		case "drop":
			sp.Drop, err = parseProb(v)
		case "corrupt":
			sp.Corrupt, err = parseProb(v)
		case "dup":
			sp.Dup, err = parseProb(v)
		case "stall":
			sp.Stall, err = parseProb(v)
		case "stallfor":
			sp.StallFor, err = time.ParseDuration(v)
		case "cut":
			sp.Cut, err = parseProb(v)
		case "heal":
			sp.Heal, err = strconv.Atoi(v)
		case "kill":
			sp.Kill, err = strconv.Atoi(v)
		case "rcorrupt":
			sp.RCorrupt, err = parseProb(v)
		case "rcwindow":
			sp.RCWindow, err = strconv.ParseInt(v, 10, 64)
		case "probedrop":
			sp.ProbeDrop, err = parseProb(v)
		case "probeheal":
			sp.ProbeHeal, err = strconv.Atoi(v)
		default:
			return sp, fmt.Errorf("faults: unknown key %q", k)
		}
		if err != nil {
			return sp, fmt.Errorf("faults: bad value for %s: %v", k, err)
		}
	}
	if sum := sp.Drop + sp.Corrupt + sp.Dup + sp.Stall + sp.Cut; sum > 1 {
		return sp, fmt.Errorf("faults: fate probabilities sum to %.3f > 1", sum)
	}
	return sp, sp.validate()
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

func (sp Spec) validate() error {
	if sp.Heal < 0 || sp.Kill < 0 || sp.ProbeHeal < 0 || sp.RCWindow < 0 {
		return fmt.Errorf("faults: negative budget")
	}
	return nil
}

// String renders the spec back in Parse syntax (only non-zero keys).
func (sp Spec) String() string {
	kv := map[string]string{}
	put := func(k, v string) { kv[k] = v }
	put("seed", strconv.FormatInt(sp.Seed, 10))
	if sp.Drop > 0 {
		put("drop", trimFloat(sp.Drop))
	}
	if sp.Corrupt > 0 {
		put("corrupt", trimFloat(sp.Corrupt))
	}
	if sp.Dup > 0 {
		put("dup", trimFloat(sp.Dup))
	}
	if sp.Stall > 0 {
		put("stall", trimFloat(sp.Stall))
	}
	if sp.StallFor > 0 {
		put("stallfor", sp.StallFor.String())
	}
	if sp.Cut > 0 {
		put("cut", trimFloat(sp.Cut))
	}
	if sp.Heal > 0 {
		put("heal", strconv.Itoa(sp.Heal))
	}
	if sp.Kill > 0 {
		put("kill", strconv.Itoa(sp.Kill))
	}
	if sp.RCorrupt > 0 {
		put("rcorrupt", trimFloat(sp.RCorrupt))
	}
	if sp.RCWindow > 0 {
		put("rcwindow", strconv.FormatInt(sp.RCWindow, 10))
	}
	if sp.ProbeDrop > 0 {
		put("probedrop", trimFloat(sp.ProbeDrop))
	}
	if sp.ProbeHeal > 0 {
		put("probeheal", strconv.Itoa(sp.ProbeHeal))
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+kv[k])
	}
	return strings.Join(parts, ",")
}

func trimFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Fate is the injector's decision for one written frame.
type Fate int

// Write-frame fates.
const (
	FateDeliver Fate = iota
	FateDrop
	FateCorrupt
	FateDup
	FateStall
	FateCut
	FateKill
)

func (f Fate) String() string {
	switch f {
	case FateDrop:
		return "drop"
	case FateCorrupt:
		return "corrupt"
	case FateDup:
		return "dup"
	case FateStall:
		return "stall"
	case FateCut:
		return "cut"
	case FateKill:
		return "kill"
	default:
		return "deliver"
	}
}

// Injector draws deterministic fault decisions from a Spec. It is safe for
// concurrent use; decisions are consumed in call order, so for exact
// reproducibility the caller's event order must itself be deterministic
// (the probing agent is single-threaded, which is what makes wire faults
// replayable).
type Injector struct {
	spec Spec

	mu         sync.Mutex
	wireState  uint64 // PRNG state for write-frame fates
	probeState uint64 // independent PRNG state for probe-response loss
	frames     int64  // frames written so far
	faults     int64  // write-side faults injected so far
	probeDrops int64  // probe responses dropped so far
	killed     bool
}

// New creates an injector for the spec.
func New(spec Spec) *Injector {
	if spec.RCorrupt > 0 && spec.RCWindow == 0 {
		spec.RCWindow = 16 << 10
	}
	return &Injector{
		spec:       spec,
		wireState:  netx.Mix64(uint64(spec.Seed) ^ 0x77697265), // "wire"
		probeState: netx.Mix64(uint64(spec.Seed) ^ 0x70726f62), // "prob"
	}
}

// next advances a PRNG state and returns a uniform float in [0,1).
func next(state *uint64) float64 {
	*state = netx.Mix64(*state)
	return float64(*state>>11) / float64(1<<53)
}

// WriteFate decides the fate of the next written frame.
func (i *Injector) WriteFate() Fate {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.killed {
		return FateKill
	}
	i.frames++
	if i.spec.Kill > 0 && i.frames >= int64(i.spec.Kill) {
		i.killed = true
		return FateKill
	}
	if i.spec.Heal > 0 && i.faults >= int64(i.spec.Heal) {
		return FateDeliver
	}
	u := next(&i.wireState)
	sp := i.spec
	switch {
	case u < sp.Drop:
		i.faults++
		return FateDrop
	case u < sp.Drop+sp.Corrupt:
		i.faults++
		return FateCorrupt
	case u < sp.Drop+sp.Corrupt+sp.Dup:
		i.faults++
		return FateDup
	case u < sp.Drop+sp.Corrupt+sp.Dup+sp.Stall:
		i.faults++
		return FateStall
	case u < sp.Drop+sp.Corrupt+sp.Dup+sp.Stall+sp.Cut:
		i.faults++
		return FateCut
	}
	return FateDeliver
}

// CorruptIndex picks the deterministic byte to flip in a frame of n payload
// bytes (the caller keeps the length prefix intact so framing survives).
func (i *Injector) CorruptIndex(n int) int {
	if n <= 0 {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	i.wireState = netx.Mix64(i.wireState)
	return int(i.wireState % uint64(n))
}

// StallFor returns the delay for stalled frames.
func (i *Injector) StallFor() time.Duration {
	if i.spec.StallFor > 0 {
		return i.spec.StallFor
	}
	return 10 * time.Millisecond
}

// ReadByteCorrupt reports whether the byte at absolute stream offset off
// should be flipped. Pure in off, so the decision is independent of read
// chunking.
func (i *Injector) ReadByteCorrupt(off int64) bool {
	sp := i.spec
	if sp.RCorrupt <= 0 || off >= sp.RCWindow {
		return false
	}
	h := netx.Mix64(uint64(sp.Seed)*0x9e3779b97f4a7c15 ^ uint64(off))
	return float64(h>>11)/float64(1<<53) < sp.RCorrupt
}

// DropProbeResponse decides whether the next simulated probe response is
// lost. It draws from a PRNG stream independent of the wire faults.
func (i *Injector) DropProbeResponse() bool {
	if i.spec.ProbeDrop <= 0 {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.spec.ProbeHeal > 0 && i.probeDrops >= int64(i.spec.ProbeHeal) {
		return false
	}
	if next(&i.probeState) < i.spec.ProbeDrop {
		i.probeDrops++
		return true
	}
	return false
}

// Killed reports whether the kill budget has fired (the vantage point is
// permanently gone; redials must fail).
func (i *Injector) Killed() bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.killed
}

// ProbeDrops returns how many probe responses have been dropped so far.
func (i *Injector) ProbeDrops() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.probeDrops
}
