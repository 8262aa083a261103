package probe

import (
	"sync"
	"sync/atomic"
)

// table is the forwarding plane's insert-only hash map. A hit is a handful
// of atomic loads and writes nothing, so lanes probing on different cores
// never take a lock or dirty a cache line another lane reads. A miss
// publishes its value under mu, which only writers take; when two
// goroutines race on one key the first stored value wins and both get it.
// An entry is immutable once published and lives as long as the table.
//
// Entries live in chunks the table owns and a slot holds 1 + an entry's
// ref, so storing one allocates nothing of its own, and a table whose keys
// and values hold no pointer is nothing the collector scans. The zero
// table — no slots until the first put — is usable without a constructor.
type table[K key, V any] struct {
	// slots is an open-addressed array, a power of two long and at most
	// half full, so a probe sequence always ends at an empty slot. Growing
	// publishes a new array holding the same refs; a reader still on the
	// old one can only miss, and put looks again under mu.
	slots atomic.Pointer[[]atomic.Uint32]
	ents  chunks[entry[K, V]]

	mu sync.Mutex
	n  int // entries stored; guarded by mu
}

// key is what a table is keyed by: small structs and integers whose hash
// is mixed (netx.Mix64), since the slots index by its low bits and router
// IDs, AS numbers and prefix bases are all aligned or sequential.
type key interface {
	comparable
	hash() uint64
}

type entry[K key, V any] struct {
	key K
	val V
}

// maxEntryChunk is the longest chunk of entries a table grows.
const maxEntryChunk = 2048

// get returns the value stored under k, nil when there is none. The value
// is shared: callers must not modify it.
func (t *table[K, V]) get(k K) *V {
	sp := t.slots.Load()
	if sp == nil {
		return nil
	}
	slots := *sp
	mask := uint64(len(slots) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		ref := slots[i].Load()
		if ref == 0 {
			return nil
		}
		if e := t.ents.at(ref - 1); e.key == k {
			return &e.val
		}
	}
}

// put stores v under k unless a value is already there, and returns the
// stored one.
func (t *table[K, V]) put(k K, v V) *V {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w := t.get(k); w != nil {
		return w
	}
	var slots []atomic.Uint32
	if sp := t.slots.Load(); sp != nil {
		slots = *sp
	}
	if 2*(t.n+1) > len(slots) {
		grown := make([]atomic.Uint32, max(16, 2*len(slots)))
		for i := range slots {
			if ref := slots[i].Load(); ref != 0 {
				place(grown, t.ents.at(ref-1).key.hash(), ref)
			}
		}
		slots = grown
		t.slots.Store(&grown)
	}
	ref, e := t.ents.reserve(1, maxEntryChunk)
	e[0] = entry[K, V]{key: k, val: v}
	place(slots, k.hash(), ref+1)
	t.n++
	return &e[0].val
}

// place stores ref in the first free slot of hash's probe sequence. The
// caller holds the table's mu and has checked that the key is absent.
func place(slots []atomic.Uint32, hash uint64, ref uint32) {
	mask := uint64(len(slots) - 1)
	i := hash & mask
	for slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	slots[i].Store(ref)
}

// chunks is an append-only store of T in chunks that never move: a value
// is named by its ref, chunk<<16 | offset, and a run reserved together is
// contiguous. Writers hold their owner's lock. A reader reads lock-free
// what a ref names once it has loaded the ref from a value published
// after the run was written.
type chunks[T any] struct {
	dir  atomic.Pointer[[][]T]
	fill int // values used in the last chunk; guarded by the owner's lock
}

// at returns the value ref names.
func (c *chunks[T]) at(ref uint32) *T {
	return &(*c.dir.Load())[ref>>16][ref&0xffff]
}

// run returns the n values from ref on.
func (c *chunks[T]) run(ref uint32, n int) []T {
	if n == 0 {
		return nil
	}
	off := int(ref & 0xffff)
	return (*c.dir.Load())[ref>>16][off : off+n : off+n]
}

// reserve returns the ref of n contiguous fresh values, and the values,
// taken from the last chunk or from a new one: the first limit/32 long,
// each next one twice the last up to limit (at most 1<<16), and never
// shorter than n.
func (c *chunks[T]) reserve(n, limit int) (uint32, []T) {
	var dir [][]T
	if d := c.dir.Load(); d != nil {
		dir = *d
	}
	if len(dir) == 0 || c.fill+n > len(dir[len(dir)-1]) {
		size := limit / 32
		if len(dir) > 0 {
			size = min(2*len(dir[len(dir)-1]), limit)
		}
		grown := append(dir[:len(dir):len(dir)], make([]T, max(size, n)))
		c.dir.Store(&grown)
		dir, c.fill = grown, 0
	}
	k := len(dir) - 1
	ref := uint32(k)<<16 | uint32(c.fill)
	c.fill += n
	return ref, dir[k][c.fill-n : c.fill]
}
