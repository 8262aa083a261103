package mapdb

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
)

// TestStatusEndpoint drives /v1/status through its states: empty store,
// published store, live spans, cache counters, and the method guard.
func TestStatusEndpoint(t *testing.T) {
	reg := obs.New()
	st := NewStore(0, reg)
	sl := obs.NewSpanLog(0)
	h := HandlerWithStatus(st, reg, sl)

	// Unlike the query endpoints, status answers 200 before any publish.
	code, body := get(t, h, "/v1/status")
	if code != http.StatusOK {
		t.Fatalf("pre-publish status = %d %v", code, body)
	}
	if body["published"] != false {
		t.Errorf("pre-publish published = %v, want false", body["published"])
	}
	if body["runtime"].(map[string]any)["goroutines"].(float64) <= 0 {
		t.Error("runtime section missing goroutine count")
	}

	// Span state: one finished vp run, one running, a still-open root.
	root := sl.Begin(0, "run", "test")
	vp1 := sl.Begin(root.ID(), "vp", "vp01")
	vp1.AddSim(5 * time.Millisecond)
	vp1.End()
	sl.Begin(root.ID(), "vp", "vp02") // left running

	reg.Counter("rounds.cache.hit").Add(3)
	reg.Counter("rounds.cache.miss").Add(1)
	st.Publish(Compile(64500, []*core.Result{syntheticResult("vp", 8, 60000)}))

	code, body = get(t, h, "/v1/status")
	if code != http.StatusOK || body["published"] != true || body["gen"].(float64) != 1 {
		t.Fatalf("post-publish status = %d %v", code, body)
	}
	cache := body["cache"].(map[string]any)
	if cache["hits"].(float64) != 3 || cache["hit_rate"].(float64) != 0.75 {
		t.Errorf("cache section = %v, want 3 hits at rate 0.75", cache)
	}
	spans := body["spans"].(map[string]any)
	if spans["recorded"].(float64) != 1 || spans["active"].(float64) != 2 {
		t.Errorf("spans section = %v, want 1 recorded 2 active", spans)
	}
	if live := body["live"].([]any); len(live) != 2 {
		t.Errorf("live = %v, want the run root and the open vp span", live)
	}
	vps := body["vps"].([]any)
	if len(vps) != 2 {
		t.Fatalf("vps = %v, want rows for vp01 and vp02", vps)
	}
	v1 := vps[0].(map[string]any)
	v2 := vps[1].(map[string]any)
	if v1["vp"] != "vp01" || v1["state"] != "idle" || v1["runs"].(float64) != 1 || v1["sim_ns"].(float64) != 5e6 {
		t.Errorf("vp01 row = %v", v1)
	}
	if v2["vp"] != "vp02" || v2["state"] != "running" || v2["runs"].(float64) != 0 {
		t.Errorf("vp02 row = %v", v2)
	}
}

// TestFleetStatusDuringRun reads /v1/fleet while VP 2's shard is held at
// its gate after the other two completed, and again after the run: the
// shard counters account for every shard as completed, in flight or
// queued, and /v1/status carries the same fleet object.
func TestFleetStatusDuringRun(t *testing.T) {
	s := eval.Build(topo.RegionalVPProfile(), 1)
	store := NewStore(0, s.Obs)
	h := HandlerWithStatus(store, s.Obs, s.Spans)

	// readFleet reads /v1/fleet, requires /v1/status to carry the same
	// object, and checks that no retired field survives.
	readFleet := func() map[string]any {
		t.Helper()
		code, f := get(t, h, "/v1/fleet")
		if code != http.StatusOK {
			t.Fatalf("/v1/fleet = %d %v", code, f)
		}
		if _, st := get(t, h, "/v1/status"); !reflect.DeepEqual(st["fleet"], f) {
			t.Errorf("/v1/status fleet = %v, /v1/fleet = %v", st["fleet"], f)
		}
		for _, k := range []string{"retries", "failed", "degraded_shards",
			"partial_publishes", "final_publishes", "partial_generation", "degraded_vps"} {
			if _, ok := f[k]; ok {
				t.Errorf("/v1/fleet still has %q: %v", k, f)
			}
		}
		return f
	}
	counts := func(f map[string]any, want map[string]float64) {
		t.Helper()
		for k, v := range want {
			if f[k] != v {
				t.Errorf("%s = %v, want %v", k, f[k], v)
			}
		}
	}

	// VP 2's shard holds at its gate until VPs 0 and 1 have completed,
	// then until the test goroutine has read the mid-run state.
	atTwo, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := s.RunFleet(scamper.Config{}, eval.FleetOptions{
			Workers: 3,
			Gate: func(vp int) {
				if vp != 2 {
					return
				}
				for s.Obs.Counter("fleet.completed").Load() < 2 {
					time.Sleep(time.Millisecond)
				}
				close(atTwo)
				<-release
			},
		})
		done <- err
	}()
	select {
	case <-atTwo:
	case <-time.After(60 * time.Second):
		t.Fatal("VPs 0 and 1 never completed")
	}
	counts(readFleet(), map[string]float64{"shards": 3, "completed": 2, "in_flight": 1, "queued": 0})
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	store.Publish(Compile(s.Net.HostASN, s.Results))

	f := readFleet()
	counts(f, map[string]float64{"shards": 3, "completed": 3, "in_flight": 0, "queued": 0})
	vps, _ := f["vps"].([]any)
	if len(vps) != 3 {
		t.Fatalf("vps = %v, want one row per VP", f["vps"])
	}
	for _, row := range vps {
		if r := row.(map[string]any); r["state"] != "idle" || r["attempts"] != 1.0 {
			t.Errorf("vp row %v, want idle after 1 attempt", r)
		}
	}
}

// TestStatusNilSpanLog checks the degraded mode Handler() mounts: status
// still serves store, cache, and runtime state with no span log attached.
func TestStatusNilSpanLog(t *testing.T) {
	reg := obs.New()
	st := NewStore(0, reg)
	code, body := get(t, Handler(st, reg), "/v1/status")
	if code != http.StatusOK {
		t.Fatalf("status without span log = %d %v", code, body)
	}
	if _, ok := body["live"]; ok {
		t.Errorf("live section present without a span log: %v", body)
	}
}

// TestStatusErrorCodes is the error-code table for the ops surface: every
// failure shape on /v1/status and its sibling endpoints must answer the
// documented status and structured code (never a bare text body).
func TestStatusErrorCodes(t *testing.T) {
	reg := obs.New()
	st := NewStore(0, reg)
	h := HandlerWithStatus(st, reg, obs.NewSpanLog(0))

	cases := []struct {
		name     string
		method   string
		path     string
		wantCode int
		wantErr  string // "" means a non-error body
	}{
		{"status GET empty store", http.MethodGet, "/v1/status", http.StatusOK, ""},
		{"status HEAD allowed", http.MethodHead, "/v1/status", http.StatusOK, ""},
		{"status POST", http.MethodPost, "/v1/status", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"status PUT", http.MethodPut, "/v1/status", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"status DELETE", http.MethodDelete, "/v1/status", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"gen empty store", http.MethodGet, "/v1/gen", http.StatusServiceUnavailable, "no_generation"},
		{"owner empty store", http.MethodGet, "/v1/owner?ip=10.0.0.1", http.StatusServiceUnavailable, "no_generation"},
		{"owner missing param", http.MethodGet, "/v1/owner", http.StatusBadRequest, "missing_parameter"},
		{"status subpath", http.MethodGet, "/v1/status/extra", http.StatusNotFound, "not_found"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := httptest.NewRequest(c.method, c.path, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != c.wantCode {
				t.Fatalf("%s %s = %d %s, want %d", c.method, c.path, rec.Code, rec.Body.String(), c.wantCode)
			}
			if c.wantErr != "" && c.method != http.MethodHead {
				var body map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					t.Fatalf("non-JSON error body %q: %v", rec.Body.String(), err)
				}
				if got := errCode(t, body); got != c.wantErr {
					t.Errorf("error code = %q, want %q", got, c.wantErr)
				}
			}
		})
	}

	// Errors on the status route feed the shared error counter like any
	// other endpoint (it is mounted through the same wrap).
	if errs := reg.Snapshot().Counter("mapdb.http.errors"); errs == 0 {
		t.Error("method-guard rejections did not count into mapdb.http.errors")
	}
	if reqs := reg.Snapshot().Counter("mapdb.http.status"); reqs == 0 {
		t.Error("no mapdb.http.status request counter recorded")
	}
}
