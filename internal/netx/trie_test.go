package netx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrieLongestMatch(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 8)
	tr.Insert(MustParsePrefix("10.1.0.0/16"), 16)
	tr.Insert(MustParsePrefix("10.1.2.0/24"), 24)

	cases := []struct {
		addr string
		want int
		ok   bool
	}{
		{"10.1.2.3", 24, true},
		{"10.1.3.3", 16, true},
		{"10.2.0.1", 8, true},
		{"11.0.0.1", 0, false},
	}
	for _, c := range cases {
		got, ok := tr.Lookup(MustParseAddr(c.addr))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Lookup(%s) = %v, %v; want %v, %v", c.addr, got, ok, c.want, c.ok)
		}
	}
}

func TestTrieLookupPrefix(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("128.66.0.0/16"), "X")
	tr.Insert(MustParsePrefix("128.66.2.0/24"), "Y")
	v, p, ok := tr.LookupPrefix(MustParseAddr("128.66.2.200"))
	if !ok || v != "Y" || p != MustParsePrefix("128.66.2.0/24") {
		t.Fatalf("got %v %v %v", v, p, ok)
	}
	v, p, ok = tr.LookupPrefix(MustParseAddr("128.66.3.1"))
	if !ok || v != "X" || p != MustParsePrefix("128.66.0.0/16") {
		t.Fatalf("got %v %v %v", v, p, ok)
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("0.0.0.0/0"), "default")
	v, ok := tr.Lookup(MustParseAddr("198.51.100.7"))
	if !ok || v != "default" {
		t.Fatalf("default route lookup failed: %v %v", v, ok)
	}
}

func TestTrieExact(t *testing.T) {
	var tr Trie[int]
	p := MustParsePrefix("192.0.2.0/24")
	tr.Insert(p, 7)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if v, ok := tr.Exact(p); !ok || v != 7 {
		t.Fatalf("Exact = %v %v", v, ok)
	}
	if _, ok := tr.Exact(MustParsePrefix("192.0.2.0/25")); ok {
		t.Fatal("Exact should miss on different length")
	}
}

func TestTrieInsertReplaces(t *testing.T) {
	var tr Trie[int]
	p := MustParsePrefix("10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if v, _ := tr.Exact(p); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
}

func TestTrieHostRoute(t *testing.T) {
	var tr Trie[int]
	a := MustParseAddr("203.0.113.5")
	tr.Insert(MakePrefix(a, 32), 32)
	tr.Insert(MustParsePrefix("203.0.113.0/24"), 24)
	if v, _ := tr.Lookup(a); v != 32 {
		t.Fatalf("host route not preferred: %d", v)
	}
	if v, _ := tr.Lookup(a + 1); v != 24 {
		t.Fatalf("covering route miss: %d", v)
	}
}

// TestTrieMatchesLinearScan cross-checks trie longest-prefix-match against a
// brute-force linear scan over random prefixes.
func TestTrieMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type entry struct {
		p Prefix
		v int
	}
	var entries []entry
	var tr Trie[int]
	for i := 0; i < 500; i++ {
		plen := 8 + rng.Intn(25)
		p := MakePrefix(Addr(rng.Uint32()), plen)
		entries = append(entries, entry{p, i})
		tr.Insert(p, i)
	}
	// Linear scan keeps the LAST inserted among equal longest, matching
	// trie replace semantics.
	lookup := func(a Addr) (int, bool) {
		best, bestLen, ok := 0, -1, false
		for _, e := range entries {
			if e.p.Contains(a) && e.p.Len >= bestLen {
				best, bestLen, ok = e.v, e.p.Len, true
			}
		}
		return best, ok
	}
	for i := 0; i < 2000; i++ {
		var a Addr
		if i%2 == 0 && len(entries) > 0 {
			e := entries[rng.Intn(len(entries))]
			a = e.p.Base + Addr(rng.Uint32())%Addr(e.p.NumAddrs())
		} else {
			a = Addr(rng.Uint32())
		}
		wantV, wantOK := lookup(a)
		gotV, gotOK := tr.Lookup(a)
		if gotOK != wantOK || (gotOK && gotV != wantV) {
			t.Fatalf("Lookup(%v) = %v,%v; scan = %v,%v", a, gotV, gotOK, wantV, wantOK)
		}
	}
}

func TestTrieLookupContainsProperty(t *testing.T) {
	// Whatever prefix LookupPrefix reports must contain the queried address.
	var tr Trie[int]
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		tr.Insert(MakePrefix(Addr(rng.Uint32()), 8+rng.Intn(17)), i)
	}
	f := func(a uint32) bool {
		_, p, ok := tr.LookupPrefix(Addr(a))
		return !ok || p.Contains(Addr(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
