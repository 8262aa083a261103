package bgp

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bdrmap/internal/topo"
)

// sameView fails the test unless got and want report the same collector
// output: expanded paths, routed prefixes, origin sets, neighbor lists.
func sameView(t *testing.T, n *topo.Network, got, want *View) {
	t.Helper()
	gotPaths, wantPaths := got.Paths(), want.Paths()
	if len(gotPaths) != len(wantPaths) {
		t.Fatalf("%d paths, want %d", len(gotPaths), len(wantPaths))
	}
	for i, w := range wantPaths {
		if g := gotPaths[i]; g.Prefix != w.Prefix || !slices.Equal(g.Path, w.Path) {
			t.Fatalf("path %d: %v %v, want %v %v", i, g.Prefix, g.Path, w.Prefix, w.Path)
		}
	}
	if !slices.Equal(got.RoutedPrefixes(), want.RoutedPrefixes()) {
		t.Fatal("routed prefixes differ")
	}
	for _, p := range want.RoutedPrefixes() {
		if g, w := got.OriginsExact(p), want.OriginsExact(p); !slices.Equal(g, w) {
			t.Fatalf("%v: origins %v, want %v", p, g, w)
		}
	}
	for _, a := range n.ASNs() {
		if g, w := got.NeighborsOf(a), want.NeighborsOf(a); !slices.Equal(g, w) {
			t.Fatalf("AS%d: neighbors %v, want %v", a, g, w)
		}
	}
}

// storedRIBs returns the RIB every atom slot holds, failing the test on an
// empty slot: Collect leaves none.
func storedRIBs(t *testing.T, tab *Table) []*PrefixRIB {
	t.Helper()
	ribs := make([]*PrefixRIB, len(tab.ribs))
	for a := range tab.ribs {
		if ribs[a] = tab.ribs[a].Load(); ribs[a] == nil {
			t.Fatalf("atom %d has no RIB after Collect", a)
		}
	}
	return ribs
}

// TestCollectSameViewAnyProcs: the RIBs are computed on however many cores
// there are, the view is folded from them in atom order — so one core, two
// and eight collect the same view, and Routes afterwards serves the very
// RIBs Collect stored.
func TestCollectSameViewAnyProcs(t *testing.T) {
	profiles := []topo.Profile{topo.TinyProfile(), topo.REProfile()}
	if !testing.Short() {
		profiles = append(profiles, topo.LargeAccessProfile())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, prof := range profiles {
		t.Run(prof.Name, func(t *testing.T) {
			n := topo.Generate(prof, 1)
			vps := DefaultVantages(n)
			var want *View
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				tab := NewTable(n)
				got := Collect(tab, vps)
				if want == nil {
					want = got
				}
				sameView(t, n, got, want)
				ribs := storedRIBs(t, tab)
				for _, p := range tab.Prefixes() {
					if tab.Routes(p) != ribs[tab.atomOf[p]] {
						t.Fatalf("GOMAXPROCS %d: Routes(%v) is not the RIB Collect stored", procs, p)
					}
				}
			}
		})
	}
}

// TestCollectBesideRoutes runs Collect while other goroutines ask Routes
// for random prefixes, the probe engine's access pattern: whoever computes
// an atom first, everybody ends up holding the one stored RIB, and the
// view is the one a quiet table gives.
func TestCollectBesideRoutes(t *testing.T) {
	n := topo.Generate(topo.REProfile(), 1)
	vps := DefaultVantages(n)
	tab := NewTable(n)
	prefixes := tab.Prefixes()

	const readers = 3
	got := make([]map[int32]*PrefixRIB, readers) // per reader: the RIB it was served for each atom
	stop := make(chan struct{})
	var started, done sync.WaitGroup
	for w := range got {
		got[w] = make(map[int32]*PrefixRIB)
		started.Add(1)
		done.Add(1)
		go func(w int) {
			defer done.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; ; i++ {
				p := prefixes[rng.Intn(len(prefixes))]
				a, r := tab.atomOf[p], tab.Routes(p)
				if prev, ok := got[w][a]; ok && prev != r {
					t.Errorf("reader %d was served two RIBs for atom %d", w, a)
					return
				}
				got[w][a] = r
				if i == 0 {
					started.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(w)
	}
	started.Wait()
	view := Collect(tab, vps)
	close(stop)
	done.Wait()

	ribs := storedRIBs(t, tab)
	for w := range got {
		for a, r := range got[w] {
			if r != ribs[a] {
				t.Fatalf("reader %d was served a RIB for atom %d that is not the stored one", w, a)
			}
		}
	}
	sameView(t, n, view, Collect(NewTable(n), vps))
}
