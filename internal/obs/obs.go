// Package obs is the pipeline's observability substrate: a lightweight,
// dependency-free metrics layer the measurement driver, probe engine,
// inference core, and evaluation harness all report into. It provides
// atomic counters, atomic max gauges, histograms with fixed bucket edges,
// and stage timers that separate wall-clock time from simulated
// measurement time (the paper reports 12-48h of simulated probing per run,
// §5.3/§6; knowing where that budget goes is the operational story of the
// system).
//
// Every primitive is safe for concurrent use and safe on a nil receiver: a
// component handed no registry pays only a nil check per event, so the
// default is a cheap no-op. Snapshots are deterministic for a fixed seed
// except for wall-clock stage timings, which Fingerprint excludes.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
// The zero value is ready to use; all methods are nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Adding zero touches nothing: callers
// that flush a batch of tallies need not test each one to keep an atomic
// write off a cache line other goroutines share.
func (c *Counter) Add(n int64) {
	if c != nil && n != 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Max is an atomic maximum gauge: Observe keeps the largest value seen.
// The zero value is ready to use; all methods are nil-safe. Because every
// update is a compare-and-swap race over the same monotone function, the
// final value is independent of the order concurrent writers run in —
// which is what makes it the right primitive for merging per-worker
// simulated clocks.
type Max struct{ v atomic.Int64 }

// Observe records v, keeping the maximum.
func (m *Max) Observe(v int64) {
	if m == nil {
		return
	}
	for {
		cur := m.v.Load()
		if v <= cur {
			return
		}
		if m.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the maximum observed so far (0 on a nil gauge).
func (m *Max) Load() int64 {
	if m == nil {
		return 0
	}
	return m.v.Load()
}

// Histogram counts observations into buckets with fixed upper-bound edges
// (bucket i holds values <= Edges[i]; one overflow bucket past the last
// edge). All methods are nil-safe.
type Histogram struct {
	edges   []int64
	buckets []atomic.Int64 // len(edges)+1
	sum     atomic.Int64
	count   atomic.Int64
}

func newHistogram(edges []int64) *Histogram {
	h := &Histogram{edges: append([]int64(nil), edges...)}
	h.buckets = make([]atomic.Int64, len(edges)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.edges) && v > h.edges[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Gauge is an atomic last-value gauge: Set overwrites, Load reads. Unlike
// Counter it is not monotone — it carries live process state (heap bytes,
// goroutine count) sampled by the runtime self-sampler, which is why
// gauges are exported on /metrics and /v1/status but excluded from
// Snapshot.Fingerprint. The zero value is ready; all methods are nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set records the current value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Load returns the last value set (0 on a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// stage aggregates timings for one named pipeline stage.
type stage struct {
	count   Counter
	wallNS  Counter // total wall-clock time, nanoseconds
	simNS   Counter // total simulated measurement time, nanoseconds
	maxWall Max
	maxSim  Max
}

// Span is one in-flight timing of a stage, created by StartStage. End
// records the wall-clock duration; AddSim attributes simulated measurement
// time to the same stage. A nil Span (from a nil Registry) is a no-op.
type Span struct {
	st    *stage
	start time.Time
	simNS int64
}

// AddSim attributes simulated measurement time to the span's stage.
func (s *Span) AddSim(d time.Duration) {
	if s != nil {
		s.simNS += int64(d)
	}
}

// End records the span: wall-clock since StartStage plus accumulated
// simulated time.
func (s *Span) End() {
	if s == nil {
		return
	}
	wall := int64(time.Since(s.start))
	s.st.count.Inc()
	s.st.wallNS.Add(wall)
	s.st.simNS.Add(s.simNS)
	s.st.maxWall.Observe(wall)
	s.st.maxSim.Observe(s.simNS)
}

// Registry holds named metrics. All methods are safe for concurrent use
// and safe on a nil receiver, which acts as a no-op registry: lookups
// return nil primitives whose methods do nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	maxes    map[string]*Max
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	stages   map[string]*stage
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		maxes:    make(map[string]*Max),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		stages:   make(map[string]*stage),
	}
}

// Counter returns the named counter, creating it on first use. Resolve
// once and hold the pointer on hot paths.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Add increments the named counter by n.
func (r *Registry) Add(name string, n int64) { r.Counter(name).Add(n) }

// Inc increments the named counter by one.
func (r *Registry) Inc(name string) { r.Counter(name).Add(1) }

// Max returns the named maximum gauge, creating it on first use.
func (r *Registry) Max(name string) *Max {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.maxes[name]
	if m == nil {
		m = &Max{}
		r.maxes[name] = m
	}
	return m
}

// Gauge returns the named last-value gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// edges on first use (later calls reuse the original edges).
func (r *Registry) Histogram(name string, edges []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(edges)
		r.hists[name] = h
	}
	return h
}

// StartStage begins timing one execution of the named stage. The returned
// span must be End()ed; on a nil registry it is a nil no-op span.
func (r *Registry) StartStage(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	st := r.stages[name]
	if st == nil {
		st = &stage{}
		r.stages[name] = st
	}
	r.mu.Unlock()
	return &Span{st: st, start: time.Now()}
}
