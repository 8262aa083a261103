package mapdb

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/goldenguard"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

var update = flag.Bool("update", false, "rewrite testdata/golden files")

// goldenRound is the stable serialization of one published generation of
// an incremental run: the churn action, the measurement fingerprint, and
// the full served link set.
type goldenRound struct {
	Gen     int      `json:"gen"`
	Action  string   `json:"action"`
	TraceFP string   `json:"trace_fp"`
	Links   []string `json:"links"`
}

func goldenRounds(ev []RoundEvent, st *Store) []goldenRound {
	out := make([]goldenRound, 0, len(ev))
	for _, e := range ev {
		snap, ok := st.Generation(e.Gen)
		if !ok {
			continue
		}
		links := make([]string, 0, snap.NumLinks())
		for _, l := range snap.Links() {
			far := l.Far.String()
			if l.Far.IsZero() {
				far = "silent"
			}
			links = append(links, fmt.Sprintf("%s %s %s %s", l.Near, far, l.FarAS, l.Heuristic))
		}
		out = append(out, goldenRound{
			Gen:     e.Gen,
			Action:  e.Action,
			TraceFP: fmt.Sprintf("%016x", e.TraceFP),
			Links:   links,
		})
	}
	return out
}

// TestRunRoundsIncrementalEquivalence is the tentpole's proof obligation:
// four rounds of churn, measured incrementally with Verify on (every round
// is cross-checked against a from-scratch run on an identically mutated
// shadow world — trace fingerprints, owner attributions, and link sets
// must be byte-identical). The incremental store must then match a
// plain scratch RunRounds generation for generation, under 1 and 4
// workers, and the whole run must match the checked-in golden files.
func TestRunRoundsIncrementalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round pipeline run")
	}
	profiles := []struct {
		name string
		prof topo.Profile
	}{
		{"tiny", topo.TinyProfile()},
		{"small-access", topo.SmallAccessProfile()},
		// Extension scenarios: churn must not disturb what each one
		// stresses — remote circuits, hypergiant shortcuts, route-server
		// vs bilateral sessions, regional VP placement.
		{"remote-peering", topo.RemotePeeringProfile()},
		{"hypergiant", topo.HypergiantProfile()},
		{"route-server", topo.RouteServerMixProfile()},
		{"regional-vp", topo.RegionalVPProfile()},
	}
	for _, pc := range profiles {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-w%d", pc.name, workers), func(t *testing.T) {
				cfg := RoundsConfig{
					Profile: pc.prof, Seed: 1, Rounds: 4, Workers: workers,
					Incremental: true, Verify: true,
				}
				st := NewStore(0, obs.New())
				ev, err := RunRounds(cfg, st)
				if err != nil {
					t.Fatal(err)
				}
				if len(ev) != 4 {
					t.Fatalf("events = %v, want 4", ev)
				}

				// Generation-for-generation identity with a plain scratch run.
				sst := NewStore(0, obs.New())
				sev, err := RunRounds(RoundsConfig{
					Profile: pc.prof, Seed: 1, Rounds: 4, Workers: workers,
				}, sst)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ev {
					if ev[i] != sev[i] {
						t.Errorf("round %d event diverged: incremental %+v scratch %+v", i, ev[i], sev[i])
					}
					a, _ := st.Generation(ev[i].Gen)
					b, _ := sst.Generation(sev[i].Gen)
					if !reflect.DeepEqual(a.Links(), b.Links()) {
						t.Errorf("generation %d: incremental link set != scratch", ev[i].Gen)
					}
				}

				// Both worker counts must reproduce the same golden run.
				got := goldenRounds(ev, st)
				path := filepath.Join("testdata", "golden",
					fmt.Sprintf("rounds-%s-seed1.json", pc.name))
				if *update && workers == 1 {
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
					t.Logf("wrote %s (%d rounds)", path, len(got))
					return
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run `go test ./internal/mapdb -run TestRunRoundsIncrementalEquivalence -update`): %v", err)
				}
				var want []goldenRound
				if err := json.Unmarshal(raw, &want); err != nil {
					t.Fatalf("corrupt golden file %s: %v", path, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("incremental run diverged from %s", path)
				}
			})
		}
	}
}

// TestIncrementalUnchangedWorldProbeReduction pins the headline win: a
// second incremental round over an unchanged world replays every target
// from cache — zero probe packets, all cache hits — at least 5x cheaper
// than the from-scratch control, while compiling a byte-identical
// snapshot.
func TestIncrementalUnchangedWorldProbeReduction(t *testing.T) {
	n := topo.Generate(topo.TinyProfile(), 1)
	carry := eval.NewCarry(len(n.VPs), true)
	scfg := scamper.Config{Workers: 2}

	s1 := eval.BuildFromNetwork(n, 1)
	if _, err := s1.RunFleet(scfg, eval.FleetOptions{Carry: carry}); err != nil {
		t.Fatal(err)
	}

	s2 := eval.BuildFromNetwork(n, 1)
	if _, err := s2.RunFleet(scfg, eval.FleetOptions{Carry: carry}); err != nil {
		t.Fatal(err)
	}

	s3 := eval.BuildFromNetwork(n, 1)
	s3.RunAll(scfg)

	scratchPackets := s3.Obs.Counter("probe.packets_sent").Load()
	incPackets := s2.Obs.Counter("probe.packets_sent").Load()
	if scratchPackets == 0 {
		t.Fatal("scratch run sent no probes")
	}
	if incPackets*5 > scratchPackets {
		t.Errorf("incremental round not >=5x cheaper: %d probe packets vs scratch %d",
			incPackets, scratchPackets)
	}
	if hits, misses := s2.Obs.Counter("rounds.cache.hit").Load(), s2.Obs.Counter("rounds.cache.miss").Load(); hits == 0 || misses != 0 {
		t.Errorf("unchanged world: rounds.cache.hit = %d, rounds.cache.miss = %d, want all hits", hits, misses)
	}
	if live := s2.Obs.Counter("driver.traces_live").Load(); live != 0 {
		t.Errorf("unchanged world walked %d traces live", live)
	}
	if tot2, tot3 := s2.Obs.Counter("driver.traces").Load(), s3.Obs.Counter("driver.traces").Load(); tot2 != tot3 {
		t.Errorf("driver.traces diverged: incremental %d scratch %d", tot2, tot3)
	}

	// Byte-identical compiled snapshot.
	inc := Compile(n.HostASN, s2.Results)
	scr := Compile(n.HostASN, s3.Results)
	if !reflect.DeepEqual(inc.links, scr.links) {
		t.Error("incremental snapshot link set != scratch")
	}
	if !reflect.DeepEqual(inc.ownerAddrs, scr.ownerAddrs) || !reflect.DeepEqual(inc.owners, scr.owners) {
		t.Error("incremental snapshot owner attributions != scratch")
	}
	for i := range s2.Datasets {
		if s2.Datasets[i].TraceFingerprint() != s3.Datasets[i].TraceFingerprint() {
			t.Errorf("VP %d trace fingerprint diverged", i)
		}
	}
}

// TestPublishedGenStableUnderInterleavedPublish pins the semantics the
// generation-attribution fix relies on, with the racy interleave made
// deterministic: a snapshot's Gen() is assigned at Publish and never moves,
// while store.Current().Gen() — which RunRounds used to read after
// publishing — names whoever published last. An event built from the
// latter would attribute a rival's generation whenever a publish slips in
// between; an event built from the published snapshot's own Gen() cannot.
func TestPublishedGenStableUnderInterleavedPublish(t *testing.T) {
	st := NewStore(0, obs.New())
	ours := Compile(64500, []*core.Result{genResult(1, 4)})
	st.Publish(ours)
	g := ours.Gen()

	// A rival publishes before the round event is recorded — the
	// preemption the concurrent bug needs, forced deterministically.
	st.Publish(Compile(64999, nil))

	if ours.Gen() != g {
		t.Fatalf("published snapshot's generation moved: %d -> %d", g, ours.Gen())
	}
	if cur := st.Current().Gen(); cur == g {
		t.Fatalf("rival publish did not advance the current generation (still %d)", cur)
	}
	// The old RoundEvent expression would have recorded the rival's
	// generation here.
	if snap, ok := st.Generation(g); !ok || snap.HostASN() != 64500 {
		t.Fatalf("generation %d does not resolve to our snapshot", g)
	}
}

// TestRoundEventGenPinnedUnderConcurrentPublish exercises the same
// contract through RunRounds itself, with a real concurrent rival: no
// round event may ever name a generation the rival published.
func TestRoundEventGenPinnedUnderConcurrentPublish(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round pipeline run")
	}
	st := NewStore(64, obs.New())

	const foreignHost = topo.ASN(64999)
	foreign := make(map[int]bool) // gens the rival publisher was assigned
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := Compile(foreignHost, nil)
				st.Publish(snap)
				foreign[snap.Gen()] = true
			}
		}
	}()

	ev, err := RunRounds(RoundsConfig{Profile: topo.TinyProfile(), Seed: 1, Rounds: 3}, st)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(foreign) == 0 {
		t.Fatal("rival publisher never ran")
	}
	for i, e := range ev {
		if foreign[e.Gen] {
			t.Errorf("round %d: event names generation %d, which the rival publisher owns — the event attributed a foreign publish",
				i, e.Gen)
		}
	}
}

// TestDiffErrorCodes pins the Store.Diff error contract and its HTTP
// mapping: structurally invalid ranges (empty or reversed) are
// *BadRangeError / 400 bad_range; generations that fell out of the history
// window are *NotRetainedError / 404 unknown_generation.
func TestDiffErrorCodes(t *testing.T) {
	st := NewStore(0, nil) // DefaultHistory = 8
	for i := 0; i < DefaultHistory+2; i++ {
		st.Publish(Compile(64500, []*core.Result{genResult(i, 4)}))
	}
	// Generations 1 and 2 are evicted; 3..10 retained.
	if got := st.Generations(); got[0] != 3 || got[len(got)-1] != 10 {
		t.Fatalf("retained generations = %v, want 3..10", got)
	}

	h := Handler(st, nil)
	cases := []struct {
		name       string
		from, to   int
		wantErr    any // *BadRangeError, *NotRetainedError with expected fields, or nil
		wantStatus int
		wantCode   string
	}{
		{"empty range", 5, 5, &BadRangeError{From: 5, To: 5}, http.StatusBadRequest, "bad_range"},
		{"reversed range", 6, 5, &BadRangeError{From: 6, To: 5}, http.StatusBadRequest, "bad_range"},
		{"evicted from", 1, 5, &NotRetainedError{Gen: 1}, http.StatusNotFound, "unknown_generation"},
		{"evicted pair", 1, 2, &NotRetainedError{Gen: 1}, http.StatusNotFound, "unknown_generation"},
		{"unknown to", 9, 99, &NotRetainedError{Gen: 99}, http.StatusNotFound, "unknown_generation"},
		{"valid", 9, 10, nil, http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := st.Diff(tc.from, tc.to)
			switch want := tc.wantErr.(type) {
			case nil:
				if err != nil {
					t.Fatalf("Diff(%d,%d) = %v, want nil", tc.from, tc.to, err)
				}
			case *BadRangeError:
				var br *BadRangeError
				if !errors.As(err, &br) || *br != *want {
					t.Fatalf("Diff(%d,%d) = %v, want %v", tc.from, tc.to, err, want)
				}
			case *NotRetainedError:
				var nr *NotRetainedError
				if !errors.As(err, &nr) || *nr != *want {
					t.Fatalf("Diff(%d,%d) = %v, want %v", tc.from, tc.to, err, want)
				}
			}

			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
				fmt.Sprintf("/v1/diff?from=%d&to=%d", tc.from, tc.to), nil))
			if rec.Code != tc.wantStatus {
				t.Fatalf("GET /v1/diff?from=%d&to=%d = %d, want %d (body %s)",
					tc.from, tc.to, rec.Code, tc.wantStatus, rec.Body)
			}
			if tc.wantCode != "" {
				var body struct {
					Error struct {
						Code string `json:"code"`
					} `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Fatal(err)
				}
				if body.Error.Code != tc.wantCode {
					t.Errorf("error code = %q, want %q", body.Error.Code, tc.wantCode)
				}
			}
		})
	}
}
