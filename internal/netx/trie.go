package netx

// Trie is a binary (Patricia-style, path-uncompressed) radix trie mapping
// prefixes to values, supporting longest-prefix-match lookup. It is the core
// data structure behind the prefix→origin-AS table bdrmap consults for every
// interface address observed in traceroute.
//
// The zero value is an empty trie ready for use. Trie is not safe for
// concurrent mutation; concurrent lookups without mutation are safe.
type Trie[V any] struct {
	root *trieNode[V]
	n    int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
}

// Insert associates v with prefix p, replacing any existing value.
func (t *Trie[V]) Insert(p Prefix, v V) {
	if t.root == nil {
		t.root = &trieNode[V]{}
	}
	n := t.root
	for depth := 0; depth < p.Len; depth++ {
		b := bitAt(p.Base, depth)
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	if !n.set {
		t.n++
	}
	n.val = v
	n.set = true
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.n }

// Lookup returns the value of the longest prefix containing a,
// and whether any prefix matched.
func (t *Trie[V]) Lookup(a Addr) (V, bool) {
	v, _, ok := t.LookupPrefix(a)
	return v, ok
}

// LookupPrefix returns the value and prefix of the longest match for a.
func (t *Trie[V]) LookupPrefix(a Addr) (V, Prefix, bool) {
	var (
		best    V
		bestLen = -1
	)
	n := t.root
	for depth := 0; n != nil; depth++ {
		if n.set {
			best, bestLen = n.val, depth
		}
		if depth == 32 {
			break
		}
		n = n.child[bitAt(a, depth)]
	}
	if bestLen < 0 {
		var zero V
		return zero, Prefix{}, false
	}
	return best, MakePrefix(a, bestLen), true
}

// Exact returns the value stored at exactly p, if any.
func (t *Trie[V]) Exact(p Prefix) (V, bool) {
	n := t.root
	for depth := 0; n != nil && depth < p.Len; depth++ {
		n = n.child[bitAt(p.Base, depth)]
	}
	if n == nil || !n.set {
		var zero V
		return zero, false
	}
	return n.val, true
}

func bitAt(a Addr, depth int) int {
	return int(a >> (31 - uint(depth)) & 1)
}
