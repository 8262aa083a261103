package obs

import (
	"runtime"
	"time"
)

// Runtime self-sampler: periodic snapshots of process health — heap,
// GC activity, goroutine count — recorded into last-value gauges so they
// ride the existing /metrics and /v1/status surfaces. Only the serving
// binary (bdrmapd) starts a sampler; library runs never do, so
// determinism fingerprints (which exclude gauges anyway) see no sampler
// noise.

// SampleRuntime records one sample of process health into reg's gauges.
// Exposed separately from the background sampler so tests and one-shot
// CLIs can sample synchronously.
func SampleRuntime(reg *Registry) {
	if reg == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("runtime.goroutines").Set(int64(runtime.NumGoroutine()))
	reg.Gauge("runtime.heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	reg.Gauge("runtime.heap_sys_bytes").Set(int64(ms.HeapSys))
	reg.Gauge("runtime.heap_objects").Set(int64(ms.HeapObjects))
	reg.Gauge("runtime.next_gc_bytes").Set(int64(ms.NextGC))
	reg.Gauge("runtime.gc_runs").Set(int64(ms.NumGC))
	reg.Gauge("runtime.gc_pause_total_ns").Set(int64(ms.PauseTotalNs))
}

// RuntimeSampler is a background loop refreshing the runtime gauges.
type RuntimeSampler struct {
	stop chan struct{}
	done chan struct{}
}

// StartRuntimeSampler samples immediately, then every interval (<= 0
// selects one second) until Stop.
func StartRuntimeSampler(reg *Registry, every time.Duration) *RuntimeSampler {
	if every <= 0 {
		every = time.Second
	}
	SampleRuntime(reg)
	s := &RuntimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				SampleRuntime(reg)
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// Stop halts the sampler and waits for its goroutine to exit. Nil-safe.
func (s *RuntimeSampler) Stop() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}
