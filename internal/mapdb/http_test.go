package mapdb

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/obs"
)

// get performs one request against the handler and decodes the JSON body.
func get(t *testing.T, h http.Handler, url string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("%s: content type %q, want JSON", url, ct)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: invalid JSON %q: %v", url, rec.Body.String(), err)
	}
	return rec.Code, body
}

// errCode extracts the structured error code, failing if the body does not
// match the {"error":{"code","message"}} contract.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("no structured error in %v", body)
	}
	code, _ := e["code"].(string)
	msg, _ := e["message"].(string)
	if code == "" || msg == "" {
		t.Fatalf("error missing code or message: %v", e)
	}
	return code
}

func TestHTTPQueries(t *testing.T) {
	reg := obs.New()
	st := NewStore(0, reg)
	h := Handler(st, reg)

	// Before the first generation: structured 503 everywhere.
	if code, body := get(t, h, "/v1/gen"); code != http.StatusServiceUnavailable || errCode(t, body) != "no_generation" {
		t.Fatalf("empty store: %d %v", code, body)
	}

	st.Publish(Compile(64500, []*core.Result{syntheticResult("vp", 8, 60000)}))
	st.Publish(Compile(64500, []*core.Result{syntheticResult("vp", 9, 60000)}))

	code, body := get(t, h, "/v1/gen")
	if code != http.StatusOK || body["gen"].(float64) != 2 || body["links"].(float64) != 9 {
		t.Fatalf("/v1/gen: %d %v", code, body)
	}

	code, body = get(t, h, "/v1/owner?ip=10.0.0.2")
	if code != http.StatusOK || body["as"].(float64) != 60000 || body["host"].(bool) {
		t.Fatalf("/v1/owner far side: %d %v", code, body)
	}
	code, body = get(t, h, "/v1/owner?ip=10.0.0.1")
	if code != http.StatusOK || body["as"].(float64) != 64500 || !body["host"].(bool) {
		t.Fatalf("/v1/owner near side: %d %v", code, body)
	}

	code, body = get(t, h, "/v1/link?near=10.0.0.1&far=10.0.0.2")
	if code != http.StatusOK {
		t.Fatalf("/v1/link: %d %v", code, body)
	}
	if l := body["link"].(map[string]any); l["far_as"].(float64) != 60000 || l["heuristic"] != "as-relationship" {
		t.Fatalf("/v1/link body: %v", body)
	}

	code, body = get(t, h, "/v1/neighbors?as=AS60001")
	if code != http.StatusOK || body["count"].(float64) != 1 {
		t.Fatalf("/v1/neighbors: %d %v", code, body)
	}

	code, body = get(t, h, "/v1/diff?from=1&to=2")
	if code != http.StatusOK || len(body["added"].([]any)) != 1 || len(body["removed"].([]any)) != 0 {
		t.Fatalf("/v1/diff: %d %v", code, body)
	}

	// Error surface: every failure is a structured code, never plain text.
	for _, tc := range []struct {
		url, code string
		status    int
	}{
		{"/v1/owner", "missing_parameter", http.StatusBadRequest},
		{"/v1/owner?ip=not-an-ip", "bad_address", http.StatusBadRequest},
		{"/v1/owner?ip=203.0.113.77", "unknown_interface", http.StatusNotFound},
		{"/v1/link?near=10.0.0.1&far=10.9.9.9", "not_a_border", http.StatusNotFound},
		{"/v1/link?far=10.0.0.2", "missing_parameter", http.StatusBadRequest},
		{"/v1/neighbors?as=junk", "bad_asn", http.StatusBadRequest},
		{"/v1/neighbors?as=65099", "unknown_neighbor", http.StatusNotFound},
		{"/v1/diff?from=1", "missing_parameter", http.StatusBadRequest},
		{"/v1/diff?from=1&to=99", "unknown_generation", http.StatusNotFound},
		{"/v1/fleet", "no_fleet", http.StatusNotFound},
		{"/v1/nope", "not_found", http.StatusNotFound},
	} {
		code, body := get(t, h, tc.url)
		if code != tc.status || errCode(t, body) != tc.code {
			t.Errorf("%s: got %d %v, want %d %s", tc.url, code, body, tc.status, tc.code)
		}
	}

	// Non-GET methods are rejected with a structured 405.
	req := httptest.NewRequest(http.MethodPost, "/v1/gen", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/gen: %d", rec.Code)
	}

	// The obs registry saw the traffic: per-endpoint counters, the error
	// counter, and the shared latency histogram.
	snap := reg.Snapshot()
	if snap.Counter("mapdb.http.owner") < 4 {
		t.Errorf("owner counter = %d, want >= 4", snap.Counter("mapdb.http.owner"))
	}
	if snap.Counter("mapdb.http.errors") == 0 {
		t.Error("error counter never incremented")
	}
	if h := snap.Histograms["mapdb.http.latency_us"]; h.Count == 0 {
		t.Error("latency histogram empty")
	}
}
