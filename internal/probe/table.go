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
// Callers supply the key's hash: keys are small structs and integers whose
// mix is one line at the call site (netx.Mix64 — the slots index by the low
// bits, and router IDs, AS numbers and prefix bases are all aligned or
// sequential), and the zero table — no slots until the first put — stays
// usable without a constructor.
type table[K comparable, V any] struct {
	// slots is an open-addressed array, a power of two long and at most
	// half full, so a probe sequence always ends at a nil slot. Growing
	// publishes a new array holding the same entries; a reader still on
	// the old one can only miss, and put looks again under mu.
	slots atomic.Pointer[[]atomic.Pointer[entry[K, V]]]

	mu sync.Mutex
	n  int // entries stored; guarded by mu
}

type entry[K comparable, V any] struct {
	key  K
	hash uint64
	val  V
}

// get returns the value stored under k, nil when there is none. The value
// is shared: callers must not modify it.
func (t *table[K, V]) get(k K, hash uint64) *V {
	sp := t.slots.Load()
	if sp == nil {
		return nil
	}
	slots := *sp
	mask := uint64(len(slots) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		e := slots[i].Load()
		if e == nil {
			return nil
		}
		if e.hash == hash && e.key == k {
			return &e.val
		}
	}
}

// put stores v under k unless a value is already there, and returns the
// stored one.
func (t *table[K, V]) put(k K, hash uint64, v V) *V {
	t.mu.Lock()
	defer t.mu.Unlock()
	if w := t.get(k, hash); w != nil {
		return w
	}
	var slots []atomic.Pointer[entry[K, V]]
	if sp := t.slots.Load(); sp != nil {
		slots = *sp
	}
	if 2*(t.n+1) > len(slots) {
		grown := make([]atomic.Pointer[entry[K, V]], max(16, 2*len(slots)))
		for i := range slots {
			if e := slots[i].Load(); e != nil {
				place(grown, e)
			}
		}
		slots = grown
		t.slots.Store(&grown)
	}
	e := &entry[K, V]{key: k, hash: hash, val: v}
	place(slots, e)
	t.n++
	return &e.val
}

// place stores e in the first free slot of its probe sequence. The caller
// holds the table's mu and has checked that e's key is absent.
func place[K comparable, V any](slots []atomic.Pointer[entry[K, V]], e *entry[K, V]) {
	mask := uint64(len(slots) - 1)
	i := e.hash & mask
	for slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	slots[i].Store(e)
}
