package bdrmap

import (
	"reflect"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	w := NewWorld(Tiny(), 1)
	if w.HostASN() == 0 || w.NumVPs() != 1 {
		t.Fatalf("world: host=%v vps=%d", w.HostASN(), w.NumVPs())
	}
	rep := w.MapBorders(0)
	if len(rep.Links) == 0 {
		t.Fatal("no links inferred")
	}
	if rep.Accuracy() < 0.9 {
		t.Errorf("accuracy %.3f", rep.Accuracy())
	}
	if rep.VPName != w.VPName(0) {
		t.Errorf("VP name mismatch: %q vs %q", rep.VPName, w.VPName(0))
	}
	if len(rep.NeighborASes()) == 0 {
		t.Fatal("no neighbors")
	}
	for _, l := range rep.Links {
		if l.FarAS == w.HostASN() {
			t.Errorf("link to self: %v", l)
		}
		if len(l.String()) == 0 {
			t.Error("empty link rendering")
		}
	}
}

func TestMapBordersCached(t *testing.T) {
	w := NewWorld(Tiny(), 2)
	a := w.MapBorders(0)
	b := w.MapBorders(0)
	if len(a.Links) != len(b.Links) {
		t.Fatal("repeated mapping differs")
	}
}

// TestRemapHonoursNewOptions: a VP is measured again when a run asks for
// something else than its recorded run — other ablation options, or a
// remote run after a local one — and the answer is a fresh world's.
func TestRemapHonoursNewOptions(t *testing.T) {
	noAlias := Options{DisableAlias: true}
	w := NewWorld(Tiny(), 1)
	base := w.MapBorders(0)
	got := w.MapBordersOpts(0, noAlias)
	if got.Raw() == base.Raw() {
		t.Fatal("MapBordersOpts(DisableAlias) returned the VP's default run")
	}
	want := NewWorld(Tiny(), 1).MapBordersOpts(0, noAlias)
	if gl, wl := goldenLinks(got), goldenLinks(want); !reflect.DeepEqual(gl, wl) {
		t.Errorf("no-alias run after a default one: %d links, a fresh world's %d", len(gl), len(wl))
	}
	if again := w.MapBordersOpts(0, noAlias); again.Raw() != got.Raw() {
		t.Error("the same options measured the VP again")
	}

	if _, err := w.MapBordersRemote(0, Options{}, ""); err != nil {
		t.Fatal(err)
	}
	if n := w.Snapshot().Counter("eval.vp_runs_remote"); n != 1 {
		t.Errorf("MapBordersRemote after local runs opened %d remote sessions, want 1", n)
	}
}

// TestRecordedRunIsReported: Table1 and Export report the run a VP was
// last mapped with, measuring nothing, while MergedMap maps every VP with
// the paper's parameters — after an ablated run it equals a fresh world's.
func TestRecordedRunIsReported(t *testing.T) {
	w := NewWorld(Tiny(), 1)
	rep := w.MapBordersOpts(0, Options{DisableAlias: true})
	runs := w.Snapshot().Counter("eval.vp_runs")
	w.Table1(0)
	if err := w.Export(0, &bytesBuffer{}); err != nil {
		t.Fatal(err)
	}
	if w.Scenario().Results[0] != rep.Raw() || w.Snapshot().Counter("eval.vp_runs") != runs {
		t.Error("Table1 or Export re-measured an already-mapped VP")
	}
	if got, want := w.MergedMap(), NewWorld(Tiny(), 1).MergedMap(); !reflect.DeepEqual(got, want) {
		t.Errorf("MergedMap after an ablated run: %d links, a fresh world's %d", got.LinkCount(), want.LinkCount())
	}
}

func TestTable1Renders(t *testing.T) {
	w := NewWorld(Tiny(), 3)
	out := w.Table1(0)
	if len(out) < 50 {
		t.Fatalf("table too short:\n%s", out)
	}
}

func TestDisableAliasOption(t *testing.T) {
	a := NewWorld(Tiny(), 4).MapBordersOpts(0, Options{})
	b := NewWorld(Tiny(), 4).MapBordersOpts(0, Options{DisableAlias: true})
	if a.Total == 0 || b.Total == 0 {
		t.Fatal("empty runs")
	}
	// Disabling alias resolution must never improve accuracy.
	if b.Accuracy() > a.Accuracy()+1e-9 {
		t.Errorf("no-alias accuracy %.3f > baseline %.3f", b.Accuracy(), a.Accuracy())
	}
}

func TestMergedMap(t *testing.T) {
	w := NewWorld(Tiny(), 5)
	m := w.MergedMap()
	if m.LinkCount() == 0 || len(m.VPs) != w.NumVPs() {
		t.Fatalf("merged map: %d links, %d VPs", m.LinkCount(), len(m.VPs))
	}
	if len(m.Neighbors) == 0 {
		t.Fatal("no neighbors in merged map")
	}
}

func TestExportProducesJSONL(t *testing.T) {
	w := NewWorld(Tiny(), 6)
	var buf bytesBuffer
	if err := w.Export(0, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.n == 0 {
		t.Fatal("nothing exported")
	}
}

// bytesBuffer avoids importing bytes just for one test.
type bytesBuffer struct{ n int }

func (b *bytesBuffer) Write(p []byte) (int, error) { b.n += len(p); return len(p), nil }

func TestProfilesExposed(t *testing.T) {
	for _, p := range []Profile{Tiny(), RE(), SmallAccess(), LargeAccess(), Tier1()} {
		if p.Name == "" || p.NumVPs < 1 {
			t.Errorf("bad profile: %+v", p.Name)
		}
	}
}
