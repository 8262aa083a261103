package netx

// Intern maps interface addresses to dense int32 IDs assigned in first-seen
// order. IDs index flat slices everywhere a map keyed by address would
// otherwise be needed, so the hot paths run on pointer-free int32 slabs.
// Each user builds a table of its own: the inference core builds one per
// inference as it walks the traces — its per-address table and node index
// are slices by ID — and hands it out with the result
// (core.Result.Intern); the alias graph's union-find keeps one; mapdb's
// compile-time dedup reuses a result's table when every result carries the
// same one and builds its own otherwise.
//
// The zero Intern is ready to use. Lookups on a populated table perform no
// allocation (pinned by TestInternLookupZeroAlloc); ID allocates only when
// it grows the table. An Intern is not safe for concurrent mutation; build
// it on one goroutine, then share it read-only.
type Intern struct {
	ids   map[Addr]int32
	addrs []Addr
}

// NewIntern returns an empty table with room for n addresses.
func NewIntern(n int) *Intern {
	return &Intern{
		ids:   make(map[Addr]int32, n),
		addrs: make([]Addr, 0, n),
	}
}

// ID returns a's dense ID, assigning the next free one on first sight.
func (t *Intern) ID(a Addr) int32 {
	if id, ok := t.ids[a]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[Addr]int32)
	}
	id := int32(len(t.addrs))
	t.ids[a] = id
	t.addrs = append(t.addrs, a)
	return id
}

// Lookup returns a's ID without assigning one.
func (t *Intern) Lookup(a Addr) (int32, bool) {
	id, ok := t.ids[a]
	return id, ok
}

// Addr returns the address holding ID id. It panics when id was never
// assigned, the same way an out-of-range slice index would.
func (t *Intern) Addr(id int32) Addr { return t.addrs[id] }

// Len returns how many addresses have been assigned IDs. Valid IDs are
// exactly [0, Len).
func (t *Intern) Len() int { return len(t.addrs) }
