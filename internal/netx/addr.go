// Package netx provides the IPv4 addressing primitives used throughout
// bdrmap: 32-bit addresses, prefixes, subnet arithmetic for point-to-point
// interconnection subnets (/30 and /31), and a longest-prefix-match trie.
//
// bdrmap is an IPv4 system (interdomain interconnection subnets are almost
// always /30 or /31 IPv4 subnets), so addresses are plain uint32 values:
// cheap to hash, compare, and store in the millions.
package netx

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order. The zero value is 0.0.0.0,
// which bdrmap treats as "no address".
type Addr uint32

// AddrFromOctets assembles an address from four dotted-quad octets.
func AddrFromOctets(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 address such as "192.0.2.1".
func ParseAddr(s string) (Addr, error) {
	var out uint32
	rest := s
	for i := 0; i < 4; i++ {
		var part string
		if i == 3 {
			part = rest
		} else {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netx: invalid address %q", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		}
		v, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("netx: invalid address %q: %v", s, err)
		}
		out = out<<8 | uint32(v)
	}
	return Addr(out), nil
}

// MustParseAddr is ParseAddr, panicking on error. For tests and literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String returns the dotted-quad form of a.
func (a Addr) String() string {
	var b [15]byte
	return string(a.AppendTo(b[:0]))
}

// AppendTo appends the dotted-quad form of a to b.
func (a Addr) AppendTo(b []byte) []byte {
	b = append(append(b, octets[a>>24]...), '.')
	b = append(append(b, octets[a>>16&0xff]...), '.')
	b = append(append(b, octets[a>>8&0xff]...), '.')
	return append(b, octets[a&0xff]...)
}

// octets[x] is x in decimal, so rendering an address appends four strings
// and converts nothing: trace fingerprints and provenance exports render
// every hop's address.
var octets = func() (d [256]string) {
	for x := range d {
		d[x] = strconv.Itoa(x)
	}
	return d
}()

// MarshalText and UnmarshalText make the dotted quad a's form in JSON and
// every other encoding.TextMarshaler consumer; malformed text is
// ParseAddr's error.
func (a Addr) MarshalText() ([]byte, error) { return a.AppendTo(nil), nil }

func (a *Addr) UnmarshalText(b []byte) (err error) {
	*a, err = ParseAddr(string(b))
	return err
}

// IsZero reports whether a is the zero address 0.0.0.0.
func (a Addr) IsZero() bool { return a == 0 }

// Prefix is an IPv4 CIDR prefix: a base address and a prefix length.
// The base address is stored masked; use Make to normalize.
type Prefix struct {
	Base Addr
	Len  int
}

// MakePrefix builds a normalized prefix from any address within it.
func MakePrefix(a Addr, plen int) Prefix {
	if plen < 0 {
		plen = 0
	}
	if plen > 32 {
		plen = 32
	}
	return Prefix{Base: a.mask(plen), Len: plen}
}

func (a Addr) mask(plen int) Addr {
	if plen <= 0 {
		return 0
	}
	return a &^ (1<<(32-uint(plen)) - 1)
}

// ParsePrefix parses "a.b.c.d/len".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netx: invalid prefix %q: missing /", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	plen, err := strconv.Atoi(s[slash+1:])
	if err != nil || plen < 0 || plen > 32 {
		return Prefix{}, fmt.Errorf("netx: invalid prefix length in %q", s)
	}
	return MakePrefix(a, plen), nil
}

// MustParsePrefix is ParsePrefix, panicking on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns the CIDR notation of p.
func (p Prefix) String() string {
	return p.Base.String() + "/" + strconv.Itoa(p.Len)
}

// MarshalText and UnmarshalText make CIDR notation p's form in JSON;
// malformed text is ParsePrefix's error.
func (p Prefix) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

func (p *Prefix) UnmarshalText(b []byte) (err error) {
	*p, err = ParsePrefix(string(b))
	return err
}

// Contains reports whether a falls within p.
func (p Prefix) Contains(a Addr) bool {
	return a.mask(p.Len) == p.Base
}

// ContainsPrefix reports whether q is equal to or more specific than p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.Len >= p.Len && p.Contains(q.Base)
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// First returns the first address of p (the base address).
func (p Prefix) First() Addr { return p.Base }

// Last returns the last address of p.
func (p Prefix) Last() Addr {
	if p.Len <= 0 {
		return 0xffffffff
	}
	return p.Base | Addr(1<<(32-uint(p.Len))-1)
}

// NumAddrs returns the number of addresses covered by p.
func (p Prefix) NumAddrs() uint64 {
	return 1 << (32 - uint(p.Len))
}

// IsValid reports whether p has a sensible length and a masked base.
func (p Prefix) IsValid() bool {
	return p.Len >= 0 && p.Len <= 32 && p.Base.mask(p.Len) == p.Base
}

// ComparePrefix orders prefixes by base address, then by length
// (shorter, i.e. less specific, first). Suitable for sort.Slice.
func ComparePrefix(a, b Prefix) int {
	switch {
	case a.Base < b.Base:
		return -1
	case a.Base > b.Base:
		return 1
	case a.Len < b.Len:
		return -1
	case a.Len > b.Len:
		return 1
	default:
		return 0
	}
}

// Mix64 is the splitmix64 step: a cheap, high-quality 64-bit mixer. Every
// seeded draw in the tree (per-AS annotations, fault schedules) and every
// hash over small aligned or sequential keys (the forwarding plane's
// tables) goes through it.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
