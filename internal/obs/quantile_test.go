package obs

import "testing"

func TestHistSnapQuantile(t *testing.T) {
	// Edges 10/20/40; observations: 2 in [0,10), 2 in [10,20), 1 overflow.
	h := HistSnap{Edges: []int64{10, 20, 40}, Counts: []int64{2, 2, 0, 1}, Count: 5}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 0},
		{0.4, 10},   // rank 2 exhausts the first bucket exactly
		{0.6, 15},   // rank 3 interpolates halfway through [10,20)
		{1, 40},     // rank in the overflow bucket clamps to the last edge
		{-1, 0},     // q clamped low
		{2, 40},     // q clamped high
		{0.2, 5},    // rank 1 interpolates halfway through [0,10)
		{0.999, 40}, // still overflow
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistSnapQuantileEmpty(t *testing.T) {
	if got := (HistSnap{}).Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	if got := (Snapshot{}).Histograms["absent"].Quantile(0.5); got != 0 {
		t.Errorf("absent histogram Quantile = %v, want 0", got)
	}
}

func TestSnapshotQuantileFromRegistry(t *testing.T) {
	r := New()
	hist := r.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{5, 5, 50, 50, 500, 500, 5000, 5000} {
		hist.Observe(v)
	}
	lat := r.Snapshot().Histograms["lat"]
	if p50 := lat.Quantile(0.5); p50 <= 0 || p50 > 100 {
		t.Errorf("p50 = %v, want within (0,100]", p50)
	}
	if p99 := lat.Quantile(0.99); p99 != 1000 {
		t.Errorf("p99 = %v, want clamped to last edge 1000", p99)
	}
	if lat.Quantile(0.5) >= lat.Quantile(0.99) {
		t.Error("quantiles not monotone")
	}
}
