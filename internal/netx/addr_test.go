package netx

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"192.0.2.1", AddrFromOctets(192, 0, 2, 1), true},
		{"10.1.2.3", AddrFromOctets(10, 1, 2, 3), true},
		{"256.0.0.1", 0, false},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"-1.0.0.0", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		back, err := ParseAddr(addr.String())
		if err != nil || back != addr {
			return false
		}
		// The text codec is the same form: JSON carries the dotted quad.
		raw, err := json.Marshal(addr)
		if err != nil || string(raw) != `"`+addr.String()+`"` {
			return false
		}
		var viaJSON Addr
		return json.Unmarshal(raw, &viaJSON) == nil && viaJSON == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	var a Addr
	for _, bad := range []string{`"10.0.0"`, `"10.0.0.256"`, `""`, `167772161`} {
		if err := json.Unmarshal([]byte(bad), &a); err == nil {
			t.Errorf("Addr decoded from %s", bad)
		}
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseAddr did not panic on invalid input")
		}
	}()
	MustParseAddr("not-an-address")
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("192.0.2.77/24")
	if p.Base != MustParseAddr("192.0.2.0") || p.Len != 24 {
		t.Fatalf("got %v", p)
	}
	if p.String() != "192.0.2.0/24" {
		t.Fatalf("String = %q", p.String())
	}
	for _, bad := range []string{"192.0.2.0", "192.0.2.0/33", "192.0.2.0/-1", "x/24"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) should fail", bad)
		}
		if err := new(Prefix).UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) should fail", bad)
		}
	}
	// The text codec is the same form: JSON carries the CIDR string.
	raw, err := json.Marshal([]Prefix{p, {}})
	if err != nil || string(raw) != `["192.0.2.0/24","0.0.0.0/0"]` {
		t.Fatalf("JSON = %s, %v", raw, err)
	}
	var back []Prefix
	if err := json.Unmarshal(raw, &back); err != nil || len(back) != 2 || back[0] != p || back[1] != (Prefix{}) {
		t.Fatalf("JSON round trip = %v, %v", back, err)
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if !p.Contains(MustParseAddr("10.255.255.255")) {
		t.Error("should contain last address")
	}
	if !p.Contains(MustParseAddr("10.0.0.0")) {
		t.Error("should contain base")
	}
	if p.Contains(MustParseAddr("11.0.0.0")) {
		t.Error("should not contain 11.0.0.0")
	}
	zero := MustParsePrefix("0.0.0.0/0")
	if !zero.Contains(MustParseAddr("203.0.113.9")) {
		t.Error("default route contains everything")
	}
}

func TestPrefixContainsPrefix(t *testing.T) {
	p16 := MustParsePrefix("128.66.0.0/16")
	p24 := MustParsePrefix("128.66.2.0/24")
	if !p16.ContainsPrefix(p24) {
		t.Error("/16 should contain /24")
	}
	if p24.ContainsPrefix(p16) {
		t.Error("/24 should not contain /16")
	}
	if !p16.ContainsPrefix(p16) {
		t.Error("prefix contains itself")
	}
	if !p16.Overlaps(p24) || !p24.Overlaps(p16) {
		t.Error("overlap should be symmetric")
	}
	other := MustParsePrefix("128.67.0.0/16")
	if p16.Overlaps(other) {
		t.Error("disjoint prefixes should not overlap")
	}
}

func TestPrefixFirstLastNum(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/30")
	if p.First() != MustParseAddr("192.0.2.0") {
		t.Errorf("First = %v", p.First())
	}
	if p.Last() != MustParseAddr("192.0.2.3") {
		t.Errorf("Last = %v", p.Last())
	}
	if p.NumAddrs() != 4 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
	all := MustParsePrefix("0.0.0.0/0")
	if all.NumAddrs() != 1<<32 {
		t.Errorf("/0 NumAddrs = %d", all.NumAddrs())
	}
	if all.Last() != 0xffffffff {
		t.Errorf("/0 Last = %v", all.Last())
	}
}

func TestPrefixHalves(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	lo, hi := p.Halves()
	if lo != MustParsePrefix("10.0.0.0/9") || hi != MustParsePrefix("10.128.0.0/9") {
		t.Fatalf("Halves = %v, %v", lo, hi)
	}
	host := MustParsePrefix("10.0.0.1/32")
	lo, hi = host.Halves()
	if lo != host || hi != host {
		t.Fatalf("Halves of /32 = %v, %v", lo, hi)
	}
}

func TestPrefixSubnet(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/16")
	s0 := p.Subnet(24, 0)
	s255 := p.Subnet(24, 255)
	if s0 != MustParsePrefix("10.0.0.0/24") {
		t.Errorf("Subnet(24,0) = %v", s0)
	}
	if s255 != MustParsePrefix("10.0.255.0/24") {
		t.Errorf("Subnet(24,255) = %v", s255)
	}
	defer func() {
		if recover() == nil {
			t.Error("Subnet out of range should panic")
		}
	}()
	p.Subnet(24, 256)
}

func TestPrefixSubnetProperty(t *testing.T) {
	// All /30 subnets of a /24 are disjoint and contained in the /24.
	p := MustParsePrefix("203.0.113.0/24")
	seen := map[Addr]bool{}
	for i := 0; i < 64; i++ {
		s := p.Subnet(30, i)
		if !p.ContainsPrefix(s) {
			t.Fatalf("subnet %v not in %v", s, p)
		}
		if seen[s.Base] {
			t.Fatalf("duplicate subnet %v", s)
		}
		seen[s.Base] = true
	}
}

func TestMakePrefixClamps(t *testing.T) {
	p := MakePrefix(MustParseAddr("1.2.3.4"), 40)
	if p.Len != 32 {
		t.Errorf("Len = %d, want clamp to 32", p.Len)
	}
	p = MakePrefix(MustParseAddr("1.2.3.4"), -5)
	if p.Len != 0 || p.Base != 0 {
		t.Errorf("got %v, want 0.0.0.0/0", p)
	}
}

func TestComparePrefix(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.0.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if ComparePrefix(a, b) >= 0 {
		t.Error("shorter prefix should sort first at same base")
	}
	if ComparePrefix(b, c) >= 0 {
		t.Error("lower base should sort first")
	}
	if ComparePrefix(a, a) != 0 {
		t.Error("equal prefixes compare 0")
	}
	if ComparePrefix(c, a) <= 0 {
		t.Error("reverse comparison sign")
	}
}

func TestPrefixIsValid(t *testing.T) {
	if !MustParsePrefix("10.0.0.0/8").IsValid() {
		t.Error("valid prefix reported invalid")
	}
	bad := Prefix{Base: MustParseAddr("10.0.0.1"), Len: 8}
	if bad.IsValid() {
		t.Error("unmasked base should be invalid")
	}
}
