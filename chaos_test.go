package bdrmap

// chaos_test.go is the end-to-end chaos regression suite: the full
// pipeline runs over the §5.8 remote-control protocol with deterministic
// fault injection on the agent link. A HEALING fault schedule (the link
// misbehaves, then recovers) must reproduce the fault-free border map
// byte-for-byte — retries, duplicate suppression, and session resume make
// transport faults invisible to inference. A PERMANENT loss must
// terminate promptly with the surviving partial map, never hang.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"bdrmap/internal/goldenguard"
)

func remoteGoldenPath(name string, seed int64) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("remote-%s-seed%d.json", name, seed))
}

func loadGolden(t *testing.T, path string) []goldenLink {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestGoldenBordersRemote -update ./`): %v", err)
	}
	var want []goldenLink
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
	return want
}

// TestGoldenBordersRemote pins the fault-free remote runs, the baseline the
// chaos schedules must reproduce. Remote runs get their own goldens
// because they are single-worker by construction; the local goldens cover
// the parallel lane schedule.
func TestGoldenBordersRemote(t *testing.T) {
	cases := []struct {
		name  string
		prof  Profile
		seeds []int64
	}{
		{"tiny", Tiny(), []int64{1, 2, 3}},
		{"remote-peering", RemotePeering(), []int64{1}},
		{"hypergiant", Hypergiant(), []int64{1}},
		{"route-server", RouteServerMix(), []int64{1}},
		{"regional-vp", RegionalVP(), []int64{1}},
	}
	for _, tc := range cases {
		for _, seed := range tc.seeds {
			tc, seed := tc, seed
			t.Run(fmt.Sprintf("%s-seed%d", tc.name, seed), func(t *testing.T) {
				world := NewWorld(tc.prof, seed)
				rep, err := world.MapBordersRemote(0, Options{}, "")
				if err != nil {
					t.Fatal(err)
				}
				got := goldenLinks(rep)
				path := remoteGoldenPath(tc.name, seed)

				if *update {
					goldenguard.Check(t)
					raw, err := json.MarshalIndent(got, "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("wrote %s (%d links)", path, len(got))
					return
				}

				want := loadGolden(t, path)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("remote link set diverged from %s\ngot  (%d links): %s\nwant (%d links): %s",
						path, len(got), mustJSON(got), len(want), mustJSON(want))
				}
				if lost := world.Scenario().Datasets[0].Stats.TargetsLost; lost != 0 {
					t.Errorf("fault-free remote run lost %d targets", lost)
				}
			})
		}
	}
}

// TestChaosHealingReproducesGolden injects healing fault schedules — the
// link drops, corrupts, duplicates, stalls, and cuts frames until the
// fault budget is spent, then behaves — and requires the EXACT fault-free
// golden link set back, plus proof the recovery machinery actually fired.
func TestChaosHealingReproducesGolden(t *testing.T) {
	specs := []struct {
		name, spec string
		wantResume bool // cut schedules must exercise session resume
	}{
		{"drop", "seed=11,drop=0.12,heal=40", false},
		{"corrupt-dup", "seed=23,corrupt=0.08,dup=0.08,heal=40", false},
		{"stall-cut", "seed=37,stall=0.05,stallfor=20ms,cut=0.02,heal=25", true},
		{"kitchen-sink", "seed=53,drop=0.05,corrupt=0.04,dup=0.04,cut=0.02,heal=30", true},
	}
	for _, tc := range specs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			world := NewWorld(Tiny(), 1)
			rep, err := world.MapBordersRemote(0, Options{}, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenLinks(rep)
			want := loadGolden(t, remoteGoldenPath("tiny", 1))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("spec %q changed the border map\ngot  (%d links): %s\nwant (%d links): %s",
					tc.spec, len(got), mustJSON(got), len(want), mustJSON(want))
			}

			m := world.Snapshot()
			recovered := m.Counter("remote.retry.read") +
				m.Counter("remote.retry.write") +
				m.Counter("remote.retry.corrupt") +
				m.Counter("remote.resume") +
				m.Counter("remote.hello_failed")
			if recovered == 0 {
				t.Errorf("spec %q injected no observable faults:\n%s", tc.spec, m.Format())
			}
			if tc.wantResume && m.Counter("remote.resume") == 0 {
				t.Errorf("spec %q cut connections but never resumed the session", tc.spec)
			}
			if lost := m.Counter("remote.session_lost"); lost != 0 {
				t.Errorf("healing spec %q lost %d session(s)", tc.spec, lost)
			}
			if lost := world.Scenario().Datasets[0].Stats.TargetsLost; lost != 0 {
				t.Errorf("healing spec %q abandoned %d target(s)", tc.spec, lost)
			}
		})
	}
}

// TestChaosHealingScenarios runs one healing kitchen-sink schedule over
// each extension scenario and requires that scenario's fault-free remote
// golden back byte-for-byte: transport chaos must be invisible regardless
// of what the topology stresses — remote-peering's WAN-scale RTTs,
// hypergiant fanout, route-server session mixes, or a single-region VP.
func TestChaosHealingScenarios(t *testing.T) {
	cases := []struct {
		name string
		prof Profile
		spec string
	}{
		{"remote-peering", RemotePeering(), "seed=61,drop=0.05,corrupt=0.04,dup=0.04,heal=30"},
		{"hypergiant", Hypergiant(), "seed=67,drop=0.05,dup=0.04,cut=0.02,heal=30"},
		{"route-server", RouteServerMix(), "seed=71,drop=0.05,corrupt=0.04,cut=0.02,heal=30"},
		{"regional-vp", RegionalVP(), "seed=73,drop=0.08,dup=0.05,heal=35"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			world := NewWorld(tc.prof, 1)
			rep, err := world.MapBordersRemote(0, Options{}, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenLinks(rep)
			want := loadGolden(t, remoteGoldenPath(tc.name, 1))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("spec %q changed the %s border map\ngot  (%d links): %s\nwant (%d links): %s",
					tc.spec, tc.name, len(got), mustJSON(got), len(want), mustJSON(want))
			}
			m := world.Snapshot()
			recovered := m.Counter("remote.retry.read") +
				m.Counter("remote.retry.write") +
				m.Counter("remote.retry.corrupt") +
				m.Counter("remote.resume") +
				m.Counter("remote.hello_failed")
			if recovered == 0 {
				t.Errorf("spec %q injected no observable faults:\n%s", tc.spec, m.Format())
			}
			if lost := m.Counter("remote.session_lost"); lost != 0 {
				t.Errorf("healing spec %q lost %d session(s)", tc.spec, lost)
			}
		})
	}
}

// TestChaosEarlyKillFailsFast severs the link before the handshake can ever
// complete (kill=1 fires on the hello frame): no session forms, the agent
// exhausts its redials, and the run must fail promptly with an error rather
// than block forever waiting for a connection that cannot arrive.
func TestChaosEarlyKillFailsFast(t *testing.T) {
	errc := make(chan error, 1)
	go func() {
		world := NewWorld(Tiny(), 1)
		_, err := world.MapBordersRemote(0, Options{}, "seed=1,kill=1")
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("early kill produced a report despite no session ever forming")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("early kill hung the run past the 60s watchdog")
	}
}

// TestChaosPermanentLossTerminates kills the agent for good mid-run: the
// driver must degrade — abandoning the unreachable targets, keeping what
// was measured — and the whole run must finish well inside the watchdog
// instead of hanging on a peer that will never answer.
func TestChaosPermanentLossTerminates(t *testing.T) {
	var (
		world *World
		rep   *Report
		err   error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		world = NewWorld(Tiny(), 1)
		rep, err = world.MapBordersRemote(0, Options{}, "seed=3,kill=30")
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("permanent VP loss hung the run past the 60s watchdog")
	}
	if err != nil {
		t.Fatalf("permanent loss must degrade, not error: %v", err)
	}
	if rep == nil {
		t.Fatal("no report from degraded run")
	}

	m := world.Snapshot()
	if m.Counter("remote.session_lost") == 0 {
		t.Errorf("killed agent not reported as a lost session:\n%s", m.Format())
	}
	if m.Counter("driver.target.lost") == 0 {
		t.Error("no targets recorded as lost after permanent agent death")
	}
	if lost := world.Scenario().Datasets[0].Stats.TargetsLost; lost == 0 {
		t.Error("Stats.TargetsLost is zero after permanent agent death")
	}
	// The partial map must be strictly smaller than the healthy one — the
	// agent died early enough (frame 30) that most targets were lost —
	// yet nonempty: what was measured before the death survives.
	want := loadGolden(t, remoteGoldenPath("tiny", 1))
	if len(rep.Links) >= len(want) {
		t.Errorf("degraded run inferred %d links, healthy run %d — kill came too late to test degradation",
			len(rep.Links), len(want))
	}
	if len(rep.Links) == 0 {
		t.Error("degradation discarded everything measured before the agent died")
	}
}
