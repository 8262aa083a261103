package mapdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// Store versions Snapshots. Readers take the current generation through
// one atomic pointer load — no locks, no contention with publishers — so
// every query is answered from exactly one immutable generation even while
// a new one is being swapped in. Publishers hold a mutex only among
// themselves to assign generation numbers, maintain the bounded history,
// and compute the per-generation diff.
//
// A Store opened with OpenStore is additionally durable: every published
// generation is serialized as a segment file (write-temp, fsync, atomic
// rename), and a restart recovers the bounded history from the segment
// directory and serves queries from it again.
type Store struct {
	cur atomic.Pointer[Snapshot]

	mu      sync.Mutex
	hist    []*Snapshot      // ascending generation, at most maxHist
	diffs   map[int]*GenDiff // keyed by To generation (diff vs To-1)
	nextGen int
	maxHist int

	dir string // segment directory; "" = memory-only

	// watchers are the /v1/watch subscribers (and in-process follower taps):
	// one buffered diff channel each. One that cannot keep up is closed and
	// dropped — the consumer resynchronizes via the history or a full segment.
	watchers map[int64]chan *GenDiff
	watchSeq int64

	reg *obs.Registry
}

// DefaultHistory is the number of generations a Store retains when
// NewStore is given no explicit bound.
const DefaultHistory = 8

// NewStore creates an empty in-memory store retaining up to maxHist
// generations (DefaultHistory if maxHist <= 0). reg may be nil.
func NewStore(maxHist int, reg *obs.Registry) *Store {
	if maxHist <= 0 {
		maxHist = DefaultHistory
	}
	return &Store{
		diffs:    make(map[int]*GenDiff),
		nextGen:  1,
		maxHist:  maxHist,
		watchers: make(map[int64]chan *GenDiff),
		reg:      reg,
	}
}

// OpenStore creates (or reopens) a durable store backed by a segment
// directory. Existing segment files are recovered oldest-to-newest: the
// last maxHist generations whose checksums verify are read back into
// the history, the newest becomes the serving generation, and publishing
// resumes at the next generation number. Incomplete publishes (leftover
// temp files) and corrupt segments are skipped — recovery always lands on
// the last fully published generation.
func OpenStore(dir string, maxHist int, reg *obs.Registry) (*Store, error) {
	st := NewStore(maxHist, reg)
	st.dir = dir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mapdb: segment dir: %w", err)
	}

	names, err := filepath.Glob(filepath.Join(dir, "gen-*"+segSuffix))
	if err != nil {
		return nil, err
	}
	// A crash between temp-write and rename leaves a *.tmp behind; it was
	// never published, so it is garbage to collect, not data to recover.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*"+segTmpSuffix)); err == nil {
		for _, p := range tmps {
			_ = os.Remove(p)
		}
	}

	var recovered []*Snapshot
	for _, p := range names {
		snap, err := OpenSegment(p)
		if err != nil {
			// Torn write, truncation, or bit rot: skip the file. The
			// publish protocol renames only after fsync, so a valid newer
			// generation can never depend on a corrupt older one.
			st.reg.Inc("mapdb.segment.corrupt")
			continue
		}
		st.reg.Inc("mapdb.segment.recovered")
		recovered = append(recovered, snap)
	}
	sort.Slice(recovered, func(i, j int) bool { return recovered[i].gen < recovered[j].gen })
	if len(recovered) > st.maxHist {
		recovered = recovered[len(recovered)-st.maxHist:]
	}
	if len(recovered) > 0 {
		st.hist = recovered
		last := recovered[len(recovered)-1]
		st.nextGen = last.gen + 1
		st.cur.Store(last)
		st.reg.Max("mapdb.store.gen").Observe(int64(last.gen))
	}
	return st, nil
}

// Dir returns the segment directory, or "" for a memory-only store.
func (st *Store) Dir() string { return st.dir }

// latestLocked returns the newest history entry. This — not the atomic
// serving pointer — is the publisher's single source of truth for "the
// previous generation": restart recovery and follower adoption seed the
// history first, and a diff computed against a divergent serving pointer
// would silently mis-state the churn.
func (st *Store) latestLocked() *Snapshot {
	if len(st.hist) == 0 {
		return nil
	}
	return st.hist[len(st.hist)-1]
}

// Publish assigns snap the next generation number, makes it the current
// generation, and returns its diff against the previous generation (nil
// for the first). snap must be freshly compiled and must not be mutated
// or published again afterwards. On a durable store the segment file is
// written and fsynced before the generation becomes visible to readers
// or watchers.
func (st *Store) Publish(snap *Snapshot) *GenDiff {
	st.mu.Lock()
	defer st.mu.Unlock()
	snap.gen = st.nextGen
	st.nextGen++

	var d *GenDiff
	if prev := st.latestLocked(); prev != nil {
		d = diffSnapshots(prev, snap)
		st.diffs[snap.gen] = d
	}
	st.installLocked(snap, d)
	return d
}

// Adopt installs a snapshot that already carries its generation number —
// a follower applying the leader's stream, or a full segment fetched to
// close a history gap. The generation must be newer than everything
// retained. d, when non-nil, is the leader's own diff into this
// generation and is cached verbatim so the follower serves
// byte-identical /v1/diff and /v1/watch content. With no diff supplied
// (the full sync) the store's own watchers are told the true change from
// the generation they last saw, removals included, not "everything added".
func (st *Store) Adopt(snap *Snapshot, d *GenDiff) error {
	if snap.gen <= 0 {
		return fmt.Errorf("mapdb: adopt: snapshot carries no generation")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	prev := st.latestLocked()
	if prev != nil && snap.gen <= prev.gen {
		return fmt.Errorf("mapdb: adopt: generation %d is not newer than retained %d", snap.gen, prev.gen)
	}
	st.nextGen = snap.gen + 1
	if d == nil && prev != nil {
		d = diffSnapshots(prev, snap)
	}
	if d != nil && d.To == snap.gen && d.From == snap.gen-1 {
		st.diffs[snap.gen] = d
	}
	st.installLocked(snap, d)
	return nil
}

// installLocked is the shared tail of Publish and Adopt: persist, append
// to history, evict, swap the serving pointer, notify watchers, account.
func (st *Store) installLocked(snap *Snapshot, d *GenDiff) {
	if st.dir != "" {
		if err := writeSegmentFile(st.dir, snap); err != nil {
			// Serving memory stays authoritative: a full disk degrades
			// durability, not availability. The counter is the alarm.
			st.reg.Inc("mapdb.segment.write_errors")
		} else {
			st.reg.Inc("mapdb.segment.writes")
		}
	}
	st.hist = append(st.hist, snap)
	if len(st.hist) > st.maxHist {
		evicted := st.hist[0]
		st.hist = st.hist[1:]
		// The diff *into* the evicted generation references nothing
		// retained; drop it so the cache stays bounded with the history.
		// Diffs keyed by retained generations hold value copies (links,
		// owner records), so they outlive the evicted snapshot.
		delete(st.diffs, evicted.gen)
		if st.dir != "" {
			_ = os.Remove(segmentPath(st.dir, evicted.gen))
		}
	}
	st.cur.Store(snap)
	st.notifyLocked(snap, d)

	st.reg.Inc("mapdb.store.publish")
	st.reg.Max("mapdb.store.gen").Observe(int64(snap.gen))
	st.reg.Max("mapdb.store.links").Observe(int64(snap.NumLinks()))
	if d != nil {
		st.reg.Add("mapdb.store.links_added", int64(len(d.Added)))
		st.reg.Add("mapdb.store.links_removed", int64(len(d.Removed)))
		st.reg.Add("mapdb.store.owner_changes", int64(len(d.OwnerChanges)))
	}
}

// notifyLocked pushes the generation's diff to every watcher. The very
// first generation has no predecessor; watchers still get a frame — a
// synthetic everything-added diff from the empty map — so a monitor
// attached before the first publish sees it. A watcher whose buffer is
// full is lagging beyond redemption: its channel is closed (the consumer
// resynchronizes) rather than allowed to block the publisher.
func (st *Store) notifyLocked(snap *Snapshot, d *GenDiff) {
	if len(st.watchers) == 0 {
		return
	}
	if d == nil {
		d = diffSnapshots(&Snapshot{host: snap.host}, snap)
		d.To = snap.gen
	}
	for id, ch := range st.watchers {
		select {
		case ch <- d:
		default:
			close(ch)
			delete(st.watchers, id)
			st.reg.Inc("mapdb.watch.lagged")
		}
	}
}

// Watch subscribes to the publish stream: every generation published
// after the call is delivered as its GenDiff on the returned channel.
// cur is the newest generation at subscription time, letting the caller
// serve backlog via Diff without racing a concurrent publish. The
// channel is closed if the subscriber falls more than buf generations
// behind. cancel is idempotent and must be called when done.
func (st *Store) Watch(buf int) (ch <-chan *GenDiff, cancel func(), cur int) {
	if buf <= 0 {
		buf = 64
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	w := make(chan *GenDiff, buf)
	id := st.watchSeq
	st.watchSeq++
	st.watchers[id] = w
	if last := st.latestLocked(); last != nil {
		cur = last.gen
	}
	cancel = func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		delete(st.watchers, id) // ids are never reused
	}
	return w, cancel, cur
}

// Current returns the latest published generation (nil before the first
// Publish). Lock-free; safe from any number of goroutines.
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// Generation returns the retained snapshot with generation g, if any.
func (st *Store) Generation(g int) (*Snapshot, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, s := range st.hist {
		if s.gen == g {
			return s, true
		}
	}
	return nil, false
}

// Generations lists the retained generation numbers, ascending.
func (st *Store) Generations() []int { return st.appendGenerations([]int{}) }

// appendGenerations appends the retained generation numbers, ascending, to
// dst: with room for them, /v1/gen lists them without allocating.
func (st *Store) appendGenerations(dst []int) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, s := range st.hist {
		dst = append(dst, s.gen)
	}
	return dst
}

// BadRangeError reports a structurally invalid diff request: a diff runs
// forward in time, so `from` must name a strictly earlier generation than
// `to`. It maps to HTTP 400 — no history window could ever satisfy the
// request.
type BadRangeError struct {
	From, To int
}

func (e *BadRangeError) Error() string {
	if e.From == e.To {
		return fmt.Sprintf("mapdb: diff range is empty: from and to are both generation %d", e.From)
	}
	return fmt.Sprintf("mapdb: diff range is reversed: from %d must be earlier than to %d", e.From, e.To)
}

// NotRetainedError reports a generation that fell out of the store's
// bounded history (or was never published). It maps to HTTP 404 — the
// request was well-formed but the data is gone.
type NotRetainedError struct {
	Gen int
}

func (e *NotRetainedError) Error() string {
	return fmt.Sprintf("mapdb: generation %d not retained", e.Gen)
}

// Diff returns the change from generation `from` to generation `to`. The
// adjacent diff computed at Publish time is served from cache; any other
// retained pair is computed on demand. `from` must be strictly earlier
// than `to` (*BadRangeError otherwise) and both generations must still be
// in the history window (*NotRetainedError otherwise, naming the earliest
// missing generation).
func (st *Store) Diff(from, to int) (*GenDiff, error) {
	if from >= to {
		return nil, &BadRangeError{From: from, To: to}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if from == to-1 {
		if d, ok := st.diffs[to]; ok {
			return d, nil
		}
	}
	var a, b *Snapshot
	for _, s := range st.hist {
		if s.gen == from {
			a = s
		}
		if s.gen == to {
			b = s
		}
	}
	if a == nil {
		return nil, &NotRetainedError{Gen: from}
	}
	if b == nil {
		return nil, &NotRetainedError{Gen: to}
	}
	return diffSnapshots(a, b), nil
}

// OwnerChange records an interface address whose inferred owner AS
// changed between two generations (the address is present in both).
type OwnerChange struct {
	Addr netx.Addr `json:"addr"`
	From topo.ASN  `json:"from"`
	To   topo.ASN  `json:"to"`
}

// OwnerDelta carries the full new attribution of one interface address —
// the replication payload letting a follower reconstruct the To
// generation's owner index without the full segment. OwnerInfo is embedded
// so the JSON record is flat: addr, as, heuristic, host, hop_dist.
type OwnerDelta struct {
	Addr netx.Addr `json:"addr"`
	OwnerInfo
}

// GenDiff is the queryable churn between two generations: interdomain
// links that appeared or vanished, neighbor ASes gained or lost, and
// interface addresses whose owner attribution changed. It doubles as the
// replication frame — OwnersSet/OwnersRemoved/Relabeled make it a
// complete delta from which Apply reconstructs the To generation — and
// its JSON encoding is that frame's wire form on /v1/watch: what a leader
// sends is this struct, and what a follower decodes is this struct.
// (/v1/diff is a different, older reply shape built in handleDiff.)
type GenDiff struct {
	From int `json:"from"`
	To   int `json:"to"`

	Added   []Link `json:"added,omitempty"`
	Removed []Link `json:"removed,omitempty"`

	// Relabeled lists links whose identity (near, far, farAS) persists in
	// both generations but whose attributing heuristic changed — not
	// churn for monitors, but required to replicate byte-identically.
	Relabeled []Link `json:"relabeled,omitempty"`

	NeighborsAdded   []topo.ASN `json:"neighbors_added,omitempty"`
	NeighborsRemoved []topo.ASN `json:"neighbors_removed,omitempty"`

	OwnerChanges []OwnerChange `json:"owner_changes,omitempty"`

	// Full owner-level delta: every address whose attribution record is
	// new or changed in any field (OwnersSet carries the To-generation
	// record), and every address that vanished.
	OwnersSet     []OwnerDelta `json:"owners_set,omitempty"`
	OwnersRemoved []netx.Addr  `json:"owners_removed,omitempty"`

	// To-generation metadata, carried so a follower labels its adopted
	// snapshot exactly as the leader labels the original.
	VPs []string `json:"vps,omitempty"`
}

// diffSnapshots computes the churn from a to b: the observed link sets
// compared by (near, far, farAS) identity — the one a query carries — the
// neighbor ASes by their link spans, and the interface-owner tables record
// by record.
func diffSnapshots(a, b *Snapshot) *GenDiff {
	d := &GenDiff{From: a.gen, To: b.gen, VPs: append([]string(nil), b.vps...)}
	inA := make(map[Link]string, len(a.links))
	for _, l := range a.links {
		inA[stripHeur(l)] = l.Heuristic
	}
	inB := make(map[Link]bool, len(b.links))
	for _, l := range b.links {
		inB[stripHeur(l)] = true
		if h, ok := inA[stripHeur(l)]; !ok {
			d.Added = append(d.Added, l)
		} else if h != l.Heuristic {
			d.Relabeled = append(d.Relabeled, l)
		}
	}
	for _, l := range a.links {
		if !inB[stripHeur(l)] {
			d.Removed = append(d.Removed, l)
		}
	}
	for _, as := range b.nbAS {
		if lo, hi := a.neighborSpan(as); lo == hi {
			d.NeighborsAdded = append(d.NeighborsAdded, as)
		}
	}
	for _, as := range a.nbAS {
		if lo, hi := b.neighborSpan(as); lo == hi {
			d.NeighborsRemoved = append(d.NeighborsRemoved, as)
		}
	}
	for i, addr := range a.ownerAddrs {
		bo, ok := b.Owner(addr)
		if !ok {
			d.OwnersRemoved = append(d.OwnersRemoved, addr)
			continue
		}
		if bo != a.owners[i] {
			d.OwnersSet = append(d.OwnersSet, OwnerDelta{Addr: addr, OwnerInfo: bo})
		}
		if bo.AS != a.owners[i].AS {
			d.OwnerChanges = append(d.OwnerChanges, OwnerChange{
				Addr: addr, From: a.owners[i].AS, To: bo.AS,
			})
		}
	}
	for i, addr := range b.ownerAddrs {
		if _, ok := a.Owner(addr); !ok {
			d.OwnersSet = append(d.OwnersSet, OwnerDelta{Addr: addr, OwnerInfo: b.owners[i]})
		}
	}
	sort.Slice(d.OwnerChanges, func(i, j int) bool {
		return d.OwnerChanges[i].Addr < d.OwnerChanges[j].Addr
	})
	sort.Slice(d.OwnersSet, func(i, j int) bool {
		return d.OwnersSet[i].Addr < d.OwnersSet[j].Addr
	})
	sort.Slice(d.OwnersRemoved, func(i, j int) bool {
		return d.OwnersRemoved[i] < d.OwnersRemoved[j]
	})
	return d
}

// stripHeur drops the heuristic tag from a link's identity: the same
// interconnect re-attributed by a different rule is not churn.
func stripHeur(l Link) Link {
	l.Heuristic = ""
	return l
}
