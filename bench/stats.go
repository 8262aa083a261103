package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks. sorted must be ascending and
// non-empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 || q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return percentile(sortedCopy(v), 0.5)
}

// tailLadder are the percentiles a timing may be reported at.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99, 0.999}

// supportedTail returns the highest percentile of tailLadder that still
// has at least ten of n samples beyond it, or 0 when not even the median
// does — the rule for which tail a sample of that size can carry.
func supportedTail(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if float64(n)*(1-q) >= 10-1e-9 { // 100·(1−0.9) is 9.999… in floats
			best = q
		}
	}
	return best
}

// quartiles returns Q1, Q2, Q3 the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// driver computes spreads with. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// iqr is Q3−Q1 of v (0 for fewer than two values).
func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	return q3 - q1
}

// timed is one operation: the window of the timed part it ran in, when
// it started (ns since the timed part began) and how long it took (ns).
type timed struct {
	win     int
	at, dur int64
}

// windows splits ops' durations (ns) by window, each window sorted
// ascending; a window without ops is dropped rather than kept empty.
func windows(ops []timed, nwin int) [][]float64 {
	buckets := make([][]float64, nwin)
	for _, o := range ops {
		if o.win >= 0 && o.win < nwin {
			buckets[o.win] = append(buckets[o.win], float64(o.dur))
		}
	}
	wins := buckets[:0]
	for _, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			wins = append(wins, b)
		}
	}
	return wins
}

// overWindows takes fn of each window and returns the median and the IQR
// over windows — a serving percentile that one slow second cannot own.
func overWindows(wins [][]float64, fn func(sorted []float64) float64) (med, spread float64) {
	per := make([]float64, len(wins))
	for i, w := range wins {
		per[i] = fn(w)
	}
	return median(per), iqr(per)
}
