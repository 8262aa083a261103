package scamper

import (
	"cmp"
	"slices"
	"strconv"

	"bdrmap/internal/obs"
)

// TraceFingerprint hashes the dataset's traces down to one value: FNV-1a
// over the sorted (target AS, destination, hop path) lines, with the
// stop-set truncation flag. IP-IDs and RTTs are deliberately excluded —
// they are responder state, vary across worker counts and rounds, and are
// never consumed by inference. Replayed traces therefore contribute
// exactly what their live counterparts would, which makes this the
// trace-level identity the incremental equivalence mode compares.
//
// A line is "AS<target>|<dst>|<path>" plus "|s" when stopped, and lines
// hash in their text order, each followed by a newline. A round and the
// benchmark fingerprint every map, so no line is kept: the traces are
// ordered by an integer key that ranks each line's "AS<target>|<dst>|"
// prefix as text (traceKey), equal keys by their rendered lines, and each
// line is rendered into one reused buffer as it is hashed. The buffers are
// an idle driver arena's, so a warm call allocates nothing; an arena
// holding every rendered line instead would keep ≈0.6 MB for a
// large-access VP where the keys keep ≈80 KB for four.
func (ds *Dataset) TraceFingerprint() uint64 {
	ar := takeArena()
	defer putArena(ar)
	keys := ar.fpKeys[:0]
	for i := range ds.Traces {
		tr := &ds.Traces[i]
		keys = append(keys, traceKey{as: asTextKey(uint32(tr.TargetAS)), dst: dstTextKey(uint32(tr.Dst)), i: uint32(i)})
	}
	slices.SortFunc(keys, func(a, b traceKey) int {
		if c := cmp.Compare(a.as, b.as); c != 0 {
			return c
		}
		if c := cmp.Compare(a.dst, b.dst); c != 0 {
			return c
		}
		ar.fpLine = ar.appendTraceLine(ar.fpLine[:0], &ds.Traces[a.i])
		ar.fpOther = ar.appendTraceLine(ar.fpOther[:0], &ds.Traces[b.i])
		return slices.Compare(ar.fpLine, ar.fpOther)
	})
	h := uint64(fnvOffset)
	for _, k := range keys {
		ar.fpLine = append(ar.appendTraceLine(ar.fpLine[:0], &ds.Traces[k.i]), '\n')
		for _, c := range ar.fpLine {
			h = (h ^ uint64(c)) * fnvPrime
		}
	}
	ar.fpKeys = keys
	return h
}

// appendTraceLine renders tr's fingerprint line without its newline, its
// path spelled as the probe.trace event exports it.
func (ar *arena) appendTraceLine(b []byte, tr *TraceRecord) []byte {
	b = strconv.AppendUint(append(b, "AS"...), uint64(tr.TargetAS), 10)
	b = tr.Dst.AppendTo(append(b, '|'))
	ar.fpHops = appendHops(ar.fpHops[:0], tr.Hops)
	b = obs.AppendPath(append(b, '|'), ar.fpHops)
	if tr.Stopped {
		b = append(b, "|s"...)
	}
	return b
}

// FNV-1a, 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// traceKey orders trace i by its line's "AS<target>|<dst>|" prefix: as
// ranks "<target>|" and dst "<a>.<b>.<c>.<d>|" as text, so two traces with
// different keys sort as their lines do. Each field of the prefix ends in
// a delimiter that is not a digit, so no prefix is a proper prefix of
// another and only traces with equal keys need their lines compared.
type traceKey struct {
	as     uint64
	dst, i uint32
}

// asTextKey ranks "<n>|" as text. In ASCII '|' sorts above every digit, so
// the key reads n's decimal digits, then 10 for the '|', then 0 for every
// place after it, as a base-11 numeral of eleven places (ten digits and the
// delimiter).
func asTextKey(n uint32) uint64 {
	var d [10]byte
	i := len(d)
	for {
		i--
		d[i] = byte(n % 10)
		if n /= 10; n == 0 {
			break
		}
	}
	var k uint64
	for p := i; p < i+11; p++ { // text position p-i
		k *= 11
		switch {
		case p < len(d):
			k += uint64(d[p])
		case p == len(d):
			k += 10
		}
	}
	return k
}

// dstTextKey ranks the dotted quad a followed by '|' as text: an octet's
// text, with the '.' after the first three (below every digit in ASCII)
// or the '|' after the last (above them), has one rank among the 256.
func dstTextKey(a uint32) uint32 {
	return uint32(octetRank[0][a>>24])<<24 | uint32(octetRank[0][a>>16&0xff])<<16 |
		uint32(octetRank[0][a>>8&0xff])<<8 | uint32(octetRank[1][a&0xff])
}

// octetRank[0][o] is o's rank as "<o>." text, octetRank[1][o] as "<o>|".
var octetRank = func() (r [2][256]uint8) {
	for t, delim := range []string{".", "|"} {
		os := make([]int, 256)
		for o := range os {
			os[o] = o
		}
		slices.SortFunc(os, func(a, b int) int {
			return cmp.Compare(strconv.Itoa(a)+delim, strconv.Itoa(b)+delim)
		})
		for rank, o := range os {
			r[t][o] = uint8(rank)
		}
	}
	return r
}()
