package main

import (
	"slices"
	"sync"
	"time"
)

// The sandbox this benchmark runs in shares its host: the same code runs
// up to 40 % slower for minutes at a time, and no estimator over one
// run's wall times can take that out (README, "The sandbox"). So every
// timed part is interleaved with short bursts of a fixed reference
// kernel, and the end-to-end wall-time metrics are reported at reference
// speed: measured time × refNominalUS / the run's median kernel time. The
// measured times themselves are the per-layer op.* metrics, next to
// bench.ref_kernel_us.

// refNominalUS is the kernel's median on the baseline box when its host
// is quiet; it fixes what "reference speed" means.
const refNominalUS = 780.0

// refKernel is fixed work with no allocation: random increments over a
// cache-resident table, then a sort. Of the kernels tried (README) this
// is the one whose time moved in proportion to all four workloads' op
// times; a table larger than the cache slowed twice as much as they did,
// a bare ALU loop half as much.
type refKernel struct {
	table []uint32
	keys  []uint64
}

func newRefKernel() *refKernel {
	return &refKernel{table: make([]uint32, 1<<15), keys: make([]uint64, 1<<13)}
}

func (k *refKernel) run() time.Duration {
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	mask := uint64(len(k.table) - 1)
	for i := 0; i < 8*len(k.keys); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.table[x&mask]++
		k.keys[i%len(k.keys)] = x
	}
	slices.Sort(k.keys)
	return time.Since(t0)
}

// speedRef collects the kernel's time over a run's bursts.
type speedRef struct {
	length  time.Duration // of one burst
	kernels [2]*refKernel // one per goroutine: both cores are measured busy
	us      []float64     // one median per burst
}

func newSpeedRef(burst time.Duration) *speedRef {
	return &speedRef{length: burst, kernels: [2]*refKernel{newRefKernel(), newRefKernel()}}
}

// burst runs the kernel on two goroutines for s.length and records the
// median kernel time. Nothing else of the benchmark runs meanwhile.
func (s *speedRef) burst() {
	var wg sync.WaitGroup
	var took [2][]float64
	for g, k := range s.kernels {
		wg.Add(1)
		go func(g int, k *refKernel) {
			defer wg.Done()
			for t0 := time.Now(); time.Since(t0) < s.length; {
				took[g] = append(took[g], float64(k.run())/1e3)
			}
		}(g, k)
	}
	wg.Wait()
	s.us = append(s.us, median(append(took[0], took[1]...)))
}

// kernelUS is the run's median kernel time.
func (s *speedRef) kernelUS() float64 { return median(s.us) }

// scale turns a measured duration into one at reference speed.
func (s *speedRef) scale() float64 { return refNominalUS / s.kernelUS() }
