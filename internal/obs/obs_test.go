package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Inc("a")
	r.Add("a", 5)
	r.Counter("a").Add(3)
	r.Max("m").Observe(7)
	r.Histogram("h", []int64{1, 2}).Observe(1)
	sp := r.StartStage("s")
	sp.AddSim(time.Second)
	sp.End()
	if got := r.Counter("a").Load(); got != 0 {
		t.Fatalf("nil counter Load = %d, want 0", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Stages) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestCounterAndMax(t *testing.T) {
	r := New()
	r.Inc("x")
	r.Add("x", 4)
	if got := r.Counter("x").Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	m := r.Max("m")
	m.Observe(3)
	m.Observe(9)
	m.Observe(7)
	if got := m.Load(); got != 9 {
		t.Fatalf("max = %d, want 9", got)
	}
}

func TestMaxOrderIndependentUnderConcurrency(t *testing.T) {
	var m Max
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := m.Load(); got != 7999 {
		t.Fatalf("max = %d, want 7999", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h", []int64{2, 4, 8})
	for _, v := range []int64{1, 2, 3, 4, 5, 9, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["h"]
	want := []int64{2, 2, 1, 2} // <=2: {1,2}, <=4: {3,4}, <=8: {5}, overflow: {9,100}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != 7 || snap.Sum != 124 {
		t.Fatalf("count=%d sum=%d, want 7/124", snap.Count, snap.Sum)
	}
}

func TestStageSpan(t *testing.T) {
	r := New()
	sp := r.StartStage("probe")
	sp.AddSim(3 * time.Second)
	sp.End()
	sp2 := r.StartStage("probe")
	sp2.AddSim(5 * time.Second)
	sp2.End()
	st := r.Snapshot().Stage("probe")
	if st.Count != 2 {
		t.Fatalf("stage count = %d, want 2", st.Count)
	}
	if st.SimNS != int64(8*time.Second) {
		t.Fatalf("stage sim = %d, want 8s", st.SimNS)
	}
	if st.MaxSimNS != int64(5*time.Second) {
		t.Fatalf("stage max sim = %d, want 5s", st.MaxSimNS)
	}
	if st.WallNS < 0 || st.MaxWallNS > st.WallNS {
		t.Fatalf("implausible wall timings: %+v", st)
	}
}

func TestFingerprintIgnoresWallClock(t *testing.T) {
	build := func(extraWall time.Duration) Snapshot {
		r := New()
		r.Add("c", 42)
		r.Max("m").Observe(7)
		r.Histogram("h", []int64{10}).Observe(3)
		sp := r.StartStage("s")
		sp.AddSim(time.Minute)
		time.Sleep(extraWall)
		sp.End()
		return r.Snapshot()
	}
	a, b := build(0), build(2*time.Millisecond)
	if a.Stage("s").WallNS == b.Stage("s").WallNS {
		t.Skip("wall clocks identical; cannot exercise the exclusion")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint changed with wall-clock time")
	}
	// But any deterministic change must change it.
	r := New()
	r.Add("c", 43)
	r.Max("m").Observe(7)
	r.Histogram("h", []int64{10}).Observe(3)
	sp := r.StartStage("s")
	sp.AddSim(time.Minute)
	sp.End()
	if r.Snapshot().Fingerprint() == a.Fingerprint() {
		t.Fatal("fingerprint ignored a counter change")
	}
}

func TestFormatAndJSON(t *testing.T) {
	r := New()
	r.Inc("probe.traceroutes")
	r.Max("driver.sim_clock_ns").Observe(12)
	out := r.Snapshot().Format()
	for _, want := range []string{"counters:", "probe.traceroutes", "maxes:", "driver.sim_clock_ns"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
	}
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["probe.traceroutes"] != 1 {
		t.Fatalf("JSON round trip lost counter: %s", raw)
	}
	if (Snapshot{}).Format() == "" {
		t.Fatal("empty snapshot Format() must be non-empty")
	}
}

func TestConcurrentRegistryAccess(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Inc("shared")
				r.Max("m").Observe(int64(i))
				r.Histogram("h", []int64{100}).Observe(int64(i))
				sp := r.StartStage("st")
				sp.AddSim(time.Nanosecond)
				sp.End()
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["shared"] != 4000 {
		t.Fatalf("shared counter = %d, want 4000", snap.Counters["shared"])
	}
	if snap.Stage("st").Count != 4000 {
		t.Fatalf("stage count = %d, want 4000", snap.Stage("st").Count)
	}
}
