//go:build !race

package scamper_test

import (
	"runtime"
	"slices"
	"testing"

	"bdrmap/internal/eval"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// TestDriverScratchReused: the probe and alias stages draw their scratch
// memory from the driver's arenas, so a warm fleet over one world makes
// none of it again. A first fleet warms everything (core's arenas
// included); the driver's free list is then emptied and a second fleet
// on a rebuilt copy of the world starts its stages cold, and a third
// starts them warm. The third must allocate at least the arena's buffers
// (record slabs, target slots, the edge index) less than the second,
// and leave the one arena it used with the very same backing arrays.
// Every idle arena must be empty: no record still holds its hops. The
// race detector changes what the runtime allocates, so the file is built
// without it (CI runs it in the allocation budgets step).
func TestDriverScratchReused(t *testing.T) {
	prof := topo.LargeAccessProfile()
	prof.NumVPs = 4
	fleet := func() uint64 {
		s := eval.Build(prof, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	fleet()
	scamper.DrainArenas()
	cold := fleet()
	warmed := scamper.IdleArenas()
	warm := fleet()
	reused := scamper.IdleArenas()

	if len(warmed) != 1 || len(reused) != 1 {
		t.Fatalf("a one-worker fleet leaves %d idle arenas cold and %d warm, want 1", len(warmed), len(reused))
	}
	for _, ia := range append(warmed, reused...) {
		if ia.Dirty != "" {
			t.Errorf("an idle arena is not empty: %s", ia.Dirty)
		}
	}
	if !slices.Equal(warmed[0].Arrays, reused[0].Arrays) {
		t.Error("the warm fleet's stages replaced a buffer of the arena")
	}
	scratch := uint64(warmed[0].Bytes)
	t.Logf("cold fleet %d KB, warm %d KB; the arena's buffers hold %d KB", cold>>10, warm>>10, scratch>>10)
	if scratch == 0 {
		t.Fatal("the arena holds no buffers")
	}
	if warm+scratch > cold {
		t.Errorf("the warm fleet allocates %d KB, more than the cold fleet's %d KB less the arena's %d KB", warm>>10, cold>>10, scratch>>10)
	}
}
