package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/mapdb"
	"bdrmap/internal/obs"
	"bdrmap/internal/topo"
)

// get performs one request against the assembled mux and decodes the body.
func get(t *testing.T, mux *http.ServeMux, path string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: non-JSON body %q: %v", path, rec.Body.String(), err)
	}
	return rec.Code, body
}

// errCode digs the structured error code out of a JSON error body.
func errCode(t *testing.T, body map[string]any) string {
	t.Helper()
	e, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf("body has no error object: %v", body)
	}
	code, _ := e["code"].(string)
	return code
}

// TestMuxServesMapAndStructuredErrors drives the daemon's HTTP surface
// end to end: obs JSON on /, map queries under /v1/, and structured JSON
// error bodies (never bare text) on every failure path.
func TestMuxServesMapAndStructuredErrors(t *testing.T) {
	reg := obs.New()
	store := mapdb.NewStore(0, reg)
	mux := newMux(reg, store, obs.NewSpanLog(0), false)

	// Before the first publish the query API is up but empty.
	if code, body := get(t, mux, "/v1/gen"); code != http.StatusServiceUnavailable || errCode(t, body) != "no_generation" {
		t.Fatalf("pre-publish /v1/gen = %d %v", code, body)
	}

	// Publish a real inference round, as main does after core.Infer.
	s := eval.Build(topo.TinyProfile(), 1)
	s.RunAll()
	store.Publish(mapdb.Compile(s.Net.HostASN, []*core.Result{s.Results[0]}))

	if code, body := get(t, mux, "/v1/gen"); code != http.StatusOK || body["gen"] != float64(1) {
		t.Fatalf("/v1/gen = %d %v", code, body)
	}
	// A served link resolves through /v1/owner with the inferred AS.
	snap := store.Current()
	links := snap.Links()
	if len(links) == 0 {
		t.Fatal("published snapshot has no links")
	}
	far := links[0].Far
	code, body := get(t, mux, "/v1/owner?ip="+far.String())
	if code != http.StatusOK {
		t.Fatalf("/v1/owner = %d %v", code, body)
	}

	// Structured errors: bad input, unknown interface, unknown path.
	if code, body := get(t, mux, "/v1/owner?ip=not-an-ip"); code != http.StatusBadRequest || errCode(t, body) != "bad_address" {
		t.Fatalf("bad ip = %d %v", code, body)
	}
	if code, body := get(t, mux, "/v1/owner?ip=203.0.113.250"); code != http.StatusNotFound || errCode(t, body) != "unknown_interface" {
		t.Fatalf("unknown interface = %d %v", code, body)
	}
	if code, body := get(t, mux, "/nope"); code != http.StatusNotFound || errCode(t, body) != "not_found" {
		t.Fatalf("unknown path = %d %v", code, body)
	}

	// The registry root still serves the obs snapshot at exactly "/".
	if code, body := get(t, mux, "/"); code != http.StatusOK || body["counters"] == nil {
		t.Fatalf("obs root = %d %v", code, body)
	}
}

// TestServerDropsSlowHeaders: a client that sends half a request line and
// stalls is hung up on within the header timeout, and costs other clients
// nothing meanwhile.
func TestServerDropsSlowHeaders(t *testing.T) {
	reg := obs.New()
	srv := newServer("", newMux(reg, mapdb.NewStore(0, reg), obs.NewSpanLog(0), false))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "GET /v1/gen HT"); err != nil {
		t.Fatal(err)
	}

	// The stalled connection holds nothing a well-behaved client needs.
	rsp, err := http.Get("http://" + ln.Addr().String() + "/v1/gen")
	if err != nil {
		t.Fatalf("/v1/gen beside a stalled client: %v", err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusServiceUnavailable { // no generation published yet
		t.Fatalf("/v1/gen = %d", rsp.StatusCode)
	}

	// The server answers the stalled client with an error or nothing, then
	// closes; a read that outlives the deadline means it was left open.
	slow.SetReadDeadline(start.Add(readHeaderTimeout + 3*time.Second))
	if _, err := io.Copy(io.Discard, slow); err != nil {
		t.Fatalf("stalled client still connected %v after its first byte: %v", time.Since(start), err)
	}
	if d := time.Since(start); d < readHeaderTimeout/2 {
		t.Fatalf("stalled client dropped after only %v", d)
	}
}

// TestMain lets a test run the real main: the test binary re-executed with
// BDRMAPD_TEST_MAIN=1 is bdrmapd.
func TestMain(m *testing.M) {
	if os.Getenv("BDRMAPD_TEST_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestFollowerInterruptedBeforeFirstGeneration: a follower started with
// -serve whose leader never has a generation exits cleanly on the first
// interrupt — it has been serving all along, and there is no generation to
// announce.
func TestFollowerInterruptedBeforeFirstGeneration(t *testing.T) {
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mapdb.WriteError(w, http.StatusServiceUnavailable, "no_generation", "nothing published")
	}))
	defer leader.Close()

	cmd := exec.Command(os.Args[0], "-follow", leader.URL, "-metrics-addr", "127.0.0.1:0", "-serve")
	cmd.Env = append(os.Environ(), "BDRMAPD_TEST_MAIN=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The signal handler is installed before "following" is logged.
	var logged strings.Builder
	following := make(chan bool, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			logged.WriteString(sc.Text() + "\n")
			if strings.Contains(sc.Text(), "following "+leader.URL) {
				following <- true
			}
		}
	}()
	select {
	case <-following:
	case <-done:
		t.Fatalf("bdrmapd exited before following:\n%s", logged.String())
	case <-time.After(20 * time.Second):
		t.Fatal("bdrmapd never started following")
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("bdrmapd still running 20 s after the interrupt")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("bdrmapd -follow -serve interrupted before any generation: %v\n%s", err, logged.String())
	}
}

// TestFollowerRefusesSpanOut: a follower has no span log, so -span-out with
// -follow is a usage error (exit 2, like an unknown profile) instead of an
// empty timeline file announced as written.
func TestFollowerRefusesSpanOut(t *testing.T) {
	out := t.TempDir() + "/spans.json"
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel() // a follower that is not refused runs until killed
	cmd := exec.CommandContext(ctx, os.Args[0], "-follow", "http://127.0.0.1:1", "-metrics-addr", "127.0.0.1:0", "-span-out", out)
	cmd.Env = append(os.Environ(), "BDRMAPD_TEST_MAIN=1")
	stderr, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("bdrmapd -follow -span-out: err %v, want exit status 2\n%s", err, stderr)
	}
	if !strings.Contains(string(stderr), "-span-out") {
		t.Errorf("refusal does not name the flag:\n%s", stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("span file %s exists after the refusal (stat: %v)", out, err)
	}
}
