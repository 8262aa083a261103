package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// HistSnap is a point-in-time copy of one histogram.
type HistSnap struct {
	Edges  []int64 `json:"edges"`
	Counts []int64 `json:"counts"` // len(Edges)+1; last bucket is overflow
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// StageSnap is a point-in-time copy of one stage timer. WallNS and
// MaxWallNS are wall-clock and therefore nondeterministic; everything else
// is reproducible for a fixed seed.
type StageSnap struct {
	Count     int64 `json:"count"`
	WallNS    int64 `json:"wall_ns"`
	SimNS     int64 `json:"sim_ns"`
	MaxWallNS int64 `json:"max_wall_ns"`
	MaxSimNS  int64 `json:"max_sim_ns"`
}

// Snapshot is a point-in-time copy of a registry, suitable for JSON
// encoding, table rendering, and cross-run comparison.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters"`
	Maxes      map[string]int64     `json:"maxes,omitempty"`
	Gauges     map[string]int64     `json:"gauges,omitempty"`
	Histograms map[string]HistSnap  `json:"histograms,omitempty"`
	Stages     map[string]StageSnap `json:"stages,omitempty"`
}

// Snapshot copies the registry's current state. On a nil registry it
// returns an empty (but usable) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Maxes:      map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnap{},
		Stages:     map[string]StageSnap{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, m := range r.maxes {
		s.Maxes[name] = m.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		hs := HistSnap{
			Edges:  append([]int64(nil), h.edges...),
			Counts: make([]int64, len(h.buckets)),
			Sum:    h.sum.Load(),
			Count:  h.count.Load(),
		}
		for i := range h.buckets {
			hs.Counts[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = hs
	}
	for name, st := range r.stages {
		s.Stages[name] = StageSnap{
			Count:     st.count.Load(),
			WallNS:    st.wallNS.Load(),
			SimNS:     st.simNS.Load(),
			MaxWallNS: st.maxWall.Load(),
			MaxSimNS:  st.maxSim.Load(),
		}
	}
	return s
}

// Counter returns a named counter's value (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Stage returns a named stage timer's snapshot (zero value when absent),
// mirroring Counter so callers need not poke the Stages map directly.
func (s Snapshot) Stage(name string) StageSnap { return s.Stages[name] }

// Quantile estimates the q-quantile (0 <= q <= 1, clamped) of the
// histogram from its bucket counts, interpolating linearly within the
// containing bucket. The first bucket interpolates from zero; values in
// the overflow bucket report the last edge (the histogram records no
// upper bound past it). An empty histogram reports 0.
func (h HistSnap) Quantile(q float64) float64 {
	if h.Count <= 0 || len(h.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	var seen int64
	lo := float64(0)
	for i, c := range h.Counts {
		if c == 0 {
			if i < len(h.Edges) {
				lo = float64(h.Edges[i])
			}
			continue
		}
		hi := lo
		if i < len(h.Edges) {
			hi = float64(h.Edges[i])
		} else {
			// Overflow bucket: no upper bound recorded; clamp to the
			// last edge rather than inventing one.
			return float64(h.Edges[len(h.Edges)-1])
		}
		if float64(seen+c) >= rank {
			frac := (rank - float64(seen)) / float64(c)
			return lo + (hi-lo)*frac
		}
		seen += c
		lo = hi
	}
	return lo
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// nameWidth returns a column width fitting every metric name in the
// snapshot, so all four sections of Format align even when one section
// holds the longest name (e.g. core.heur.fire.* counters).
func (s Snapshot) nameWidth() int {
	w := 0
	grow := func(k string) {
		if len(k) > w {
			w = len(k)
		}
	}
	for k := range s.Counters {
		grow(k)
	}
	for k := range s.Maxes {
		grow(k)
	}
	for k := range s.Gauges {
		grow(k)
	}
	for k := range s.Histograms {
		grow(k)
	}
	for k := range s.Stages {
		grow(k)
	}
	return w + 2
}

// Format renders the snapshot as a human-readable table, sorted by metric
// name within each section. All sections share one name-column width.
func (s Snapshot) Format() string {
	var b strings.Builder
	w := s.nameWidth()
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-*s %d\n", w, k, s.Counters[k])
		}
	}
	if len(s.Maxes) > 0 {
		b.WriteString("maxes:\n")
		for _, k := range sortedKeys(s.Maxes) {
			fmt.Fprintf(&b, "  %-*s %d\n", w, k, s.Maxes[k])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-*s %d\n", w, k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			mean := float64(0)
			if h.Count > 0 {
				mean = float64(h.Sum) / float64(h.Count)
			}
			fmt.Fprintf(&b, "  %-*s count=%d mean=%.1f p50=%.1f p99=%.1f buckets(le %v)=%v\n",
				w, k, h.Count, mean, h.Quantile(0.50), h.Quantile(0.99), h.Edges, h.Counts)
		}
	}
	if len(s.Stages) > 0 {
		b.WriteString("stages:\n")
		for _, k := range sortedKeys(s.Stages) {
			st := s.Stages[k]
			fmt.Fprintf(&b, "  %-*s runs=%d wall=%v sim=%v\n",
				w, k, st.Count,
				time.Duration(st.WallNS).Round(time.Microsecond),
				time.Duration(st.SimNS).Round(time.Millisecond))
		}
	}
	if b.Len() == 0 {
		return "(no metrics recorded)\n"
	}
	return b.String()
}

// Fingerprint hashes the deterministic portion of the snapshot: counters,
// maxes, histograms, and the per-stage run counts and simulated times.
// Wall-clock stage timings are excluded, and so are gauges — they carry
// live process state (the runtime self-sampler's heap/GC/goroutine
// readings), not measurement — so for a fixed seed the fingerprint is
// identical across repeated runs.
func (s Snapshot) Fingerprint() string {
	var b strings.Builder
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(&b, "c %s %d\n", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Maxes) {
		fmt.Fprintf(&b, "m %s %d\n", k, s.Maxes[k])
	}
	for _, k := range sortedKeys(s.Histograms) {
		h := s.Histograms[k]
		fmt.Fprintf(&b, "h %s %d %d %v %v\n", k, h.Count, h.Sum, h.Edges, h.Counts)
	}
	for _, k := range sortedKeys(s.Stages) {
		st := s.Stages[k]
		fmt.Fprintf(&b, "s %s %d %d %d\n", k, st.Count, st.SimNS, st.MaxSimNS)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// Handler serves the registry as JSON (the bdrmapd metrics endpoint).
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}
