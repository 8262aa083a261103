package alias

import (
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/probe"
)

// Velocity-based alias inference, after RadarGun and MIDAR (§3 of the
// paper): instead of requiring tightly interleaved samples like Ally, each
// address's IP-ID time series is collected over a window and modeled as a
// counter advancing at some rate. Two addresses share a counter when one
// rate-consistent line fits the *merged* series — which tolerates rate
// limiting and uneven scheduling that break classic Ally interleaving.

type idSample struct {
	t  float64 // seconds
	id uint16
}

// Velocity runs the velocity test on a pair and records the verdict.
func (r *Resolver) Velocity(a, b netx.Addr) Verdict {
	if a == b {
		return AliasYes
	}
	if v := r.Verdict(a, b); v != Unknown {
		return v
	}
	method, ok := r.pickMethod(a, b)
	if !ok {
		return Unknown
	}
	var bufA, bufB [velocitySamples]idSample
	sa := r.sampleSeries(a, method, bufA[:0])
	sb := r.sampleSeries(b, method, bufB[:0])
	if len(sa) < 3 || len(sb) < 3 {
		return Unknown
	}
	ra, oka := fitCounter(sa)
	rb, okb := fitCounter(sb)
	if !oka || !okb {
		return Unknown // at least one series is not a counter at all
	}
	rates := [...]float64{ra, rb} // volatile evidence, like Ally's IP-ID samples
	no := func(why string) Verdict {
		r.Record(a, b, AliasNo)
		r.emit(obs.KindVelocity, a, b, obs.Str(obs.KeyVerdict, AliasNo.String()), obs.Str(obs.KeyWhy, why),
			obs.Rates(obs.KeyRates, rates[:]))
		return AliasNo
	}
	// Rates must agree within 25% before merging is even plausible.
	if !ratesClose(ra, rb, 0.25) {
		return no("rate-mismatch")
	}
	var mergedBuf [2 * velocitySamples]idSample
	merged := append(append(mergedBuf[:0], sa...), sb...)
	sortSamples(merged)
	// MIDAR's monotonicity requirement on the merged series.
	for i := 1; i < len(merged); i++ {
		d := merged[i].id - merged[i-1].id
		if d >= 1<<15 {
			return no("merged-non-monotonic")
		}
	}
	if _, ok := fitCounter(merged); !ok {
		return no("merged-misfit")
	}
	r.Record(a, b, AliasYes)
	r.emit(obs.KindVelocity, a, b, obs.Str(obs.KeyVerdict, AliasYes.String()),
		obs.Rates(obs.KeyRates, rates[:]))
	return AliasYes
}

// sampleSeries appends timestamped IP-ID samples for one address to out.
func (r *Resolver) sampleSeries(a netx.Addr, m probe.Method, out []idSample) []idSample {
	for i := 0; i < velocitySamples; i++ {
		resp := r.Src.Probe(a, m)
		if resp.OK && resp.IPID != 0 {
			out = append(out, idSample{t: resp.When.Seconds(), id: resp.IPID})
		}
		r.Src.Advance(velocityGap)
	}
	return out
}

// fitCounter checks that a sample series is consistent with a single
// counter: unwrap the 16-bit IDs assuming monotonic growth, fit a line by
// least squares, and bound the residuals. Returns the rate in IDs/sec.
func fitCounter(s []idSample) (rate float64, ok bool) {
	if len(s) < 3 {
		return 0, false
	}
	// Unwrap.
	var buf [2 * velocitySamples]float64 // a merged pair's series fits
	acc := float64(s[0].id)
	un := append(buf[:0], acc)
	for i := 1; i < len(s); i++ {
		d := s[i].id - s[i-1].id // uint16 arithmetic handles wrap
		if d >= 1<<15 {
			return 0, false // decreasing: not one monotonic counter
		}
		acc += float64(d)
		un = append(un, acc)
	}
	// Least squares y = a + r*t.
	var st, sy, stt, sty float64
	n := float64(len(s))
	for i := range s {
		st += s[i].t
		sy += un[i]
		stt += s[i].t * s[i].t
		sty += s[i].t * un[i]
	}
	den := n*stt - st*st
	if den == 0 {
		return 0, false
	}
	rate = (n*sty - st*sy) / den
	a0 := (sy - rate*st) / n
	if rate < velocityMinRate {
		return 0, false
	}
	for i := range s {
		resid := un[i] - (a0 + rate*s[i].t)
		if resid < 0 {
			resid = -resid
		}
		if resid > velocityMaxResid {
			return 0, false
		}
	}
	return rate, true
}

func ratesClose(a, b, tol float64) bool {
	if a <= 0 || b <= 0 {
		return false
	}
	hi, lo := a, b
	if hi < lo {
		hi, lo = lo, hi
	}
	return (hi-lo)/hi <= tol
}

func sortSamples(s []idSample) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].t < s[j-1].t; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
