package mapdb

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/netx"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// inferSnapshot runs one real measurement round over profile and compiles
// the result — the differential substrate for the segment format.
func inferSnapshot(t *testing.T, prof topo.Profile) *Snapshot {
	t.Helper()
	n := topo.Generate(prof, 1)
	s := eval.BuildFromNetwork(n, 1)
	if _, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	return Compile(n.HostASN, s.Results)
}

// requireSnapshotsAnswerIdentically drives every query the serving API
// exposes through both snapshots and requires byte-identical answers:
// owner (indexed and linear) for every indexed address plus misses, link for
// every pair plus misses, neighbor spans for every AS, and an empty
// mutual diff.
func requireSnapshotsAnswerIdentically(t *testing.T, mem, got *Snapshot) {
	t.Helper()
	if mem.Gen() != got.Gen() || mem.HostASN() != got.HostASN() {
		t.Fatalf("identity diverged: gen %d/%d host %d/%d", mem.Gen(), got.Gen(), mem.HostASN(), got.HostASN())
	}
	if !reflect.DeepEqual(mem.VPs(), got.VPs()) {
		t.Errorf("VPs diverged: %v vs %v", mem.VPs(), got.VPs())
	}
	if !reflect.DeepEqual(mem.Links(), got.Links()) {
		t.Fatalf("link slices diverged (%d vs %d links)", mem.NumLinks(), got.NumLinks())
	}
	for i, addr := range mem.ownerAddrs {
		o1, ok1 := mem.Owner(addr)
		o2, ok2 := got.Owner(addr)
		if !ok1 || !ok2 || o1 != o2 {
			t.Fatalf("owner(%s) diverged: %v/%v vs %v/%v", addr, o1, ok1, o2, ok2)
		}
		if lo, ok := got.ownerLinear(addr); !ok || lo != o2 {
			t.Fatalf("owner(%s): linear scan %v/%v disagrees with trie %v", addr, lo, ok, o2)
		}
		if o1 != mem.owners[i] && mem.ownerAddrs[i] == addr {
			// Duplicate-free index: the lookup must resolve to this record.
			t.Fatalf("owner(%s) = %v, want record %v", addr, o1, mem.owners[i])
		}
		// A probe around every indexed address exercises misses.
		if _, ok1 := mem.Owner(addr + 1); ok1 != func() bool { _, ok2 := got.Owner(addr + 1); return ok2 }() {
			t.Fatalf("owner miss behavior diverged at %s", addr+1)
		}
	}
	for _, l := range mem.Links() {
		l1, ok1 := mem.Link(l.Near, l.Far)
		l2, ok2 := got.Link(l.Near, l.Far)
		if !ok1 || !ok2 || l1 != l2 {
			t.Fatalf("link(%s,%s) diverged: %v/%v vs %v/%v", l.Near, l.Far, l1, ok1, l2, ok2)
		}
	}
	if _, ok := got.Link(netx.Addr(0xDEADBEEF), netx.Addr(1)); ok {
		t.Fatal("link miss answered on reopened snapshot")
	}
	if !reflect.DeepEqual(mem.NeighborASes(), got.NeighborASes()) {
		t.Fatalf("neighbor AS sets diverged")
	}
	for _, as := range mem.NeighborASes() {
		if !reflect.DeepEqual(mem.Neighbors(as), got.Neighbors(as)) {
			t.Fatalf("neighbors(%s) diverged", as)
		}
	}
	if nb := got.Neighbors(0xFFFFFFF0); len(nb) != 0 {
		t.Fatalf("neighbors miss answered %d links", len(nb))
	}
	if d := diffSnapshots(mem, got); !d.Empty() {
		t.Fatalf("diff(mem, reopened) not empty: +%d -%d owners %d/%d",
			len(d.Added), len(d.Removed), len(d.OwnersSet), len(d.OwnersRemoved))
	}
	if d := diffSnapshots(got, mem); !d.Empty() {
		t.Fatal("diff(reopened, mem) not empty")
	}
}

// TestSegmentRoundtripDifferential writes real inferred snapshots (tiny
// and regional-vp worlds) in segment format and reopens them through both
// entry points — OpenSegment (from a file) and ReadSegment (from memory) —
// requiring every query answer to be byte-identical to the in-memory
// original, and diffs computed between reopened generations to equal
// diffs between the originals.
func TestSegmentRoundtripDifferential(t *testing.T) {
	profiles := []struct {
		name string
		prof topo.Profile
	}{
		{"tiny", topo.TinyProfile()},
		{"regional-vp", topo.RegionalVPProfile()},
	}
	for _, pc := range profiles {
		t.Run(pc.name, func(t *testing.T) {
			mem := inferSnapshot(t, pc.prof)
			mem.gen = 7 // as if published

			var buf bytes.Buffer
			n, err := mem.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
			}

			path := filepath.Join(t.TempDir(), "gen-00000007.seg")
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			opened, err := OpenSegment(path)
			if err != nil {
				t.Fatal(err)
			}
			requireSnapshotsAnswerIdentically(t, mem, opened)

			heap, err := ReadSegment(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			requireSnapshotsAnswerIdentically(t, mem, heap)

			// Serialization is deterministic: same snapshot, same bytes.
			var buf2 bytes.Buffer
			if _, err := opened.WriteTo(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Error("re-serializing the reopened snapshot changed the image")
			}
		})
	}
}

// segmentFixture is generation 1 of tiny (seed 1) as the last writer that
// persisted the lookup indexes published it: all twelve sections, 1–7 the
// data (3 an empty list of VPs missing from a partial generation) and 8–12
// the owner trie, pair keys, pair values, neighbor ASes and neighbor
// offsets a reader used to serve from as decoded.
const segmentFixture = "testdata/segment-v1-indexed.seg"

// TestSegmentDerivesIndexes pins what opening a segment trusts: the data
// sections and nothing else. The old-format fixture opens to the canonical
// image a fresh compile of the same world has; the same file with any of
// its retired index sections overwritten by hostile values (CRCs resealed,
// so only the content is wrong) opens to a snapshot that answers every
// lookup like the clean one — a reader serving those sections as decoded
// panics in Neighbors on the negative offset and answers every hop pair
// with another link on the reversed pair values. A file marked partial —
// flags bit 0 set, section 3 naming VPs — opens as an ordinary generation,
// and a fresh image carries neither mark. An owner table in any order is
// canonicalised; one naming an address twice is refused.
func TestSegmentDerivesIndexes(t *testing.T) {
	fixture, err := os.ReadFile(segmentFixture)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := ReadSegment(fixture)
	if err != nil {
		t.Fatal(err)
	}
	fresh := inferSnapshot(t, topo.TinyProfile())
	fresh.gen = 1
	want := image(t, fresh)
	if !bytes.Equal(image(t, clean), want) {
		t.Fatal("the reopened fixture's image differs from a fresh compile of tiny seed 1 (the fixture holds that world's map as inferred when it was written)")
	}
	requireSnapshotsAnswerIdentically(t, fresh, clean)

	le := binary.LittleEndian
	if flags := le.Uint32(want[20:]); flags != 0 || tableEntry(want, 3) != nil {
		t.Errorf("a fresh image has flags %#x and section 3 %v, want 0 and none", flags, tableEntry(want, 3) != nil)
	}
	reverseWords := func(p []byte) { reverseRecords(p, 4) }
	for _, h := range []struct {
		name string
		sec  uint32
		edit func(p []byte)
	}{
		{"trie children out of range", 8, func(p []byte) {
			for i := 0; i+12 <= len(p); i += 12 {
				le.PutUint32(p[i:], 0x7fffffff)
				le.PutUint32(p[i+4:], 0x7fffffff)
			}
		}},
		{"pairKeys zeroed", 9, func(p []byte) { clear(p) }},
		{"pairVals reversed", 10, reverseWords},
		{"nbAS reversed", 11, reverseWords},
		{"nbOff[0] = -5", 12, func(p []byte) { le.PutUint32(p, ^uint32(4)) }},
	} {
		t.Run(h.name, func(t *testing.T) {
			got, err := ReadSegment(resealed(t, fixture, h.sec, h.edit))
			if err != nil {
				t.Fatal(err)
			}
			requireSnapshotsAnswerIdentically(t, clean, got)
			if !bytes.Equal(image(t, got), want) {
				t.Error("a retired section leaked into the reopened image")
			}
		})
	}
	t.Run("marked partial", func(t *testing.T) {
		img := bytes.Clone(fixture)
		le.PutUint32(img[20:], le.Uint32(img[20:])|1)
		// Point section 3 at the VP list: a well-formed, non-empty list.
		copy(tableEntry(img, 3)[4:20], tableEntry(img, secVPs)[4:20])
		reseal(img)
		if n := le.Uint32(sectionOf(t, img, 3)); n == 0 {
			t.Fatal("section 3 still lists no VPs")
		}
		got, err := ReadSegment(img)
		if err != nil {
			t.Fatal(err)
		}
		requireSnapshotsAnswerIdentically(t, clean, got)
		if !bytes.Equal(image(t, got), want) {
			t.Error("a partial mark leaked into the reopened image")
		}
	})

	t.Run("owners in any order", func(t *testing.T) {
		rev := resealed(t, want, secOwnerAddrs, reverseWords)
		rev = resealed(t, rev, secOwners, func(p []byte) { reverseRecords(p, ownerRecLen) })
		got, err := ReadSegment(rev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(image(t, got), want) {
			t.Error("a descending owner table did not reopen to the canonical image")
		}
	})
	t.Run("owner address twice", func(t *testing.T) {
		dup := resealed(t, want, secOwnerAddrs, func(p []byte) { copy(p[8:12], p[:4]) })
		if _, err := ReadSegment(dup); err == nil {
			t.Fatal("an owner table naming one address twice opened")
		}
	})
}

// TestSegmentDiffAcrossReopenedGenerations compiles two generations,
// round-trips both through segment files, and requires the diff computed
// between the reopened pair to deep-equal the diff between the originals.
func TestSegmentDiffAcrossReopenedGenerations(t *testing.T) {
	dir := t.TempDir()
	s1 := Compile(64500, []*core.Result{genResult(1, 24)})
	s2 := Compile(64500, []*core.Result{genResult(2, 32)})
	s1.gen, s2.gen = 1, 2
	want := diffSnapshots(s1, s2)

	var reopened []*Snapshot
	for _, s := range []*Snapshot{s1, s2} {
		if err := writeSegmentFile(dir, s); err != nil {
			t.Fatal(err)
		}
		r, err := OpenSegment(segmentPath(dir, s.gen))
		if err != nil {
			t.Fatal(err)
		}
		reopened = append(reopened, r)
	}
	got := diffSnapshots(reopened[0], reopened[1])
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("diff across reopened generations diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// publishGens opens a durable store in dir and publishes gens 1..n of the
// synthetic generation-tagged world.
func publishGens(t *testing.T, dir string, n int) *Store {
	t.Helper()
	st, err := OpenStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	have := 0
	if cur := st.Current(); cur != nil {
		have = cur.Gen()
	}
	for g := have + 1; g <= n; g++ {
		st.Publish(Compile(64500, []*core.Result{genResult(g, 16)}))
	}
	return st
}

// requireServes asserts a freshly opened store serves exactly generation
// want of the tagged world.
func requireServes(t *testing.T, dir string, want int) {
	t.Helper()
	st, err := OpenStore(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := st.Current()
	if want == 0 {
		if cur != nil {
			t.Fatalf("store served generation %d, want none", cur.Gen())
		}
		return
	}
	if cur == nil {
		t.Fatalf("store served nothing, want generation %d", want)
	}
	if cur.Gen() != want {
		t.Fatalf("store served generation %d, want %d", cur.Gen(), want)
	}
	// The recovered generation must carry its world: the tag is encoded in
	// every attribution.
	o, ok := cur.Owner(0x0a000001)
	if !ok || o.AS != topo.ASN(40000+want) {
		t.Fatalf("recovered generation %d serves owner %v/%v, want AS%d", want, o, ok, 40000+want)
	}
}

// TestStoreCrashDuringPublish simulates every interruption point of the
// publish protocol on a real segment directory and requires recovery to
// serve the last fully published generation: a crash before rename (full
// temp file left behind), a torn rename target (truncated at several
// depths), a post-publish corruption (flipped byte breaking a section
// CRC), and an empty file.
func TestStoreCrashDuringPublish(t *testing.T) {
	t.Run("crash-before-rename", func(t *testing.T) {
		dir := t.TempDir()
		st := publishGens(t, dir, 2)
		// Crash between temp-write and rename: gen 3's image fully written
		// but never renamed. It must be ignored and garbage-collected.
		snap3 := Compile(64500, []*core.Result{genResult(3, 16)})
		snap3.gen = 3
		tmp := segmentPath(dir, 3) + segTmpSuffix
		f, err := os.Create(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snap3.WriteTo(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_ = st
		requireServes(t, dir, 2)
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Error("recovery left the orphaned temp file behind")
		}
	})

	t.Run("torn-segment", func(t *testing.T) {
		for _, keep := range []float64{0.05, 0.5, 0.95} {
			dir := t.TempDir()
			publishGens(t, dir, 3)
			p := segmentPath(dir, 3)
			img, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, img[:int(float64(len(img))*keep)], 0o644); err != nil {
				t.Fatal(err)
			}
			requireServes(t, dir, 2)
		}
	})

	t.Run("bad-crc", func(t *testing.T) {
		dir := t.TempDir()
		publishGens(t, dir, 3)
		p := segmentPath(dir, 3)
		img, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		img[len(img)-5] ^= 0x40 // flip a bit inside the last section
		if err := os.WriteFile(p, img, 0o644); err != nil {
			t.Fatal(err)
		}
		requireServes(t, dir, 2)
	})

	t.Run("empty-file", func(t *testing.T) {
		dir := t.TempDir()
		publishGens(t, dir, 2)
		if err := os.WriteFile(segmentPath(dir, 2), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		requireServes(t, dir, 1)
	})

	t.Run("all-corrupt", func(t *testing.T) {
		dir := t.TempDir()
		publishGens(t, dir, 1)
		if err := os.WriteFile(segmentPath(dir, 1), []byte("BDRSgarbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		requireServes(t, dir, 0)
	})

	t.Run("publish-resumes-after-recovery", func(t *testing.T) {
		dir := t.TempDir()
		publishGens(t, dir, 2)
		st := publishGens(t, dir, 4) // reopen, publish 3 and 4
		if got := st.Generations(); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
			t.Fatalf("generations after recovery+publish = %v", got)
		}
		// The diff published on top of a recovered history
		// tail must be against that tail, not a fresh baseline.
		d, err := st.Diff(2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if d.Empty() {
			t.Fatal("diff across the recovery boundary is empty; generations 2 and 3 differ")
		}
		requireServes(t, dir, 4)
	})
}

// TestStoreEvictionReleasesSegments pins what eviction from the bounded
// history of a durable store does: the evicted generation's segment file
// is pruned, every diff keyed by a *retained* generation stays fully
// readable (diffs hold value copies, not references into the evicted
// snapshot), and the store keeps serving.
func TestStoreEvictionReleasesSegments(t *testing.T) {
	dir := t.TempDir()
	publishGens(t, dir, 2)

	// Reopen so generations 1-2 are recovered from their segment files,
	// then publish 3: its diff (2→3) is computed *from* recovered
	// generation 2.
	st, err := OpenStore(dir, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Publish(Compile(64500, []*core.Result{genResult(3, 16)}))

	// Evict generations 1 and 2 (maxHist 3: publishing 4 and 5 drops them).
	st.Publish(Compile(64500, []*core.Result{genResult(4, 16)}))
	st.Publish(Compile(64500, []*core.Result{genResult(5, 16)}))
	if _, err := os.Stat(segmentPath(dir, 1)); !os.IsNotExist(err) {
		t.Error("evicted generation 1's segment file not pruned")
	}

	// Retained diffs must still be fully readable: walk every string and
	// value they carry.
	for _, g := range st.Generations() {
		d, err := st.Diff(g-1, g)
		if err != nil {
			continue // g-1 evicted: on-demand diff unavailable, fine
		}
		for _, l := range append(append([]Link(nil), d.Added...), d.Removed...) {
			if len(l.Heuristic) > 1000 {
				t.Fatal("unreachable")
			}
		}
		for _, od := range d.OwnersSet {
			if len(od.Heuristic) > 1000 {
				t.Fatal("unreachable")
			}
		}
	}
	// And the store still serves.
	if cur := st.Current(); cur == nil || cur.Gen() != 5 {
		t.Fatal("store lost its current generation across eviction")
	}
}

// TestPublishDiffsAgainstHistoryTail is the satellite-1 regression: the
// diff published with a new generation must be computed against the
// newest *history* entry — the single source of truth — not the atomic
// serving pointer. The two can diverge (the serving pointer is the last
// thing installLocked updates; recovery and adoption seed history first),
// and the old cur.Load()-based diff silently mis-stated churn when they
// did.
func TestPublishDiffsAgainstHistoryTail(t *testing.T) {
	st := NewStore(0, nil)
	st.Publish(Compile(64500, []*core.Result{genResult(1, 8)}))
	st.Publish(Compile(64500, []*core.Result{genResult(2, 8)}))

	// Force the divergence: point the serving pointer at generation 1
	// while the history tail is generation 2.
	g1, _ := st.Generation(1)
	st.cur.Store(g1)

	d := st.Publish(Compile(64500, []*core.Result{genResult(3, 8)}))
	if d == nil {
		t.Fatal("publish returned no diff")
	}
	if d.From != 2 {
		t.Fatalf("diff computed against generation %d, want history tail 2", d.From)
	}
	g2, _ := st.Generation(2)
	g3, _ := st.Generation(3)
	if want := diffSnapshots(g2, g3); !reflect.DeepEqual(want, d) {
		t.Fatal("published diff does not match the history-tail diff")
	}
}
