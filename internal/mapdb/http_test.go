package mapdb

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/eval"
	"bdrmap/internal/netx"
	"bdrmap/internal/obs"
	"bdrmap/internal/scamper"
	"bdrmap/internal/topo"
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

// httpErrorCases is the API's error surface on a store whose generations
// are 1 and 2: every failure is a structured code.
var httpErrorCases = []struct {
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
	for _, tc := range httpErrorCases {
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

// requireReplyMatchesOracle serves method target through h and requires the
// status, the one JSON Content-Type value and the body bytes the
// reflective handlers wrote for it.
func requireReplyMatchesOracle(t *testing.T, h http.Handler, st *Store, method, target string) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	code, body := oracleServe(st, method, target)
	if ct := rec.Header()["Content-Type"]; rec.Code != code || len(ct) != 1 || ct[0] != "application/json" ||
		!bytes.Equal(rec.Body.Bytes(), body) {
		t.Fatalf("%s %s: got %d %q\n%s\nencoding/json wrote %d\n%s", method, target, rec.Code, ct, rec.Body.Bytes(), code, body)
	}
	return code
}

// TestReadRepliesMatchEncodingJSON holds the appended replies to the
// reflective encoding/json ones byte for byte, over real maps: every owner,
// 1 024 absent addresses, every link key, every neighbor AS, /v1/gen, every
// diff between retained generations, the error surface, and query strings
// that exercise url.ParseQuery's rules. tiny, r&e and large-access (one VP,
// then four) are published into one store in turn, so /v1/gen lists
// several retained generations.
func TestReadRepliesMatchEncodingJSON(t *testing.T) {
	st := NewStore(0, nil)
	h := Handler(st, nil)
	requireReplyMatchesOracle(t, h, st, http.MethodGet, "/v1/gen")

	la := topo.LargeAccessProfile()
	la.NumVPs = 4
	var maps []*Snapshot
	for _, prof := range []topo.Profile{topo.TinyProfile(), topo.REProfile(), la} {
		n := topo.Generate(prof, 1)
		sc := eval.BuildFromNetwork(n, 1)
		if _, err := sc.RunFleet(scamper.Config{}, eval.FleetOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		if prof.NumVPs > 1 {
			maps = append(maps, Compile(n.HostASN, sc.Results[:1]))
		}
		maps = append(maps, Compile(n.HostASN, sc.Results))
	}

	zeroNear := 0
	for _, snap := range maps {
		st.Publish(snap)
		s := st.Current()
		serve := func(target string) int { return requireReplyMatchesOracle(t, h, st, http.MethodGet, target) }
		serve("/v1/gen")
		for _, a := range s.ownerAddrs {
			serve("/v1/owner?ip=" + a.String())
		}
		for i, absent := 0, 0; absent < 1024; i++ {
			a := netx.Addr(0xf0000000 + uint32(i)*4099)
			if _, ok := s.Owner(a); !ok {
				serve("/v1/owner?ip=" + a.String())
				absent++
			}
		}
		for _, l := range s.Links() {
			target := "/v1/link?near=" + l.Near.String()
			if !l.Far.IsZero() {
				target += "&far=" + l.Far.String()
			}
			if code := serve(target); l.Near.IsZero() {
				// An unobserved near side is no hop pair (Snapshot.Link).
				zeroNear++
				if code != http.StatusNotFound {
					t.Fatalf("%s: %d, want 404 not_a_border", target, code)
				}
			}
		}
		for _, as := range s.NeighborASes() {
			serve("/v1/neighbors?as=" + strconv.FormatUint(uint64(as), 10))
		}
		gens := st.Generations()
		for _, from := range gens {
			for _, to := range gens {
				serve("/v1/diff?from=" + strconv.Itoa(from) + "&to=" + strconv.Itoa(to))
			}
		}

		o := s.ownerAddrs[0].String()
		for _, target := range []string{
			"/v1/owner?ip=" + o + "&ip=junk",
			"/v1/owner?ip=junk&ip=" + o,
			"/v1/owner?ip=%zz&ip=" + o,
			"/v1/owner?x;y=1&ip=" + o,
			"/v1/owner?ip=" + o + ";x",
			"/v1/owner?i%70=" + o,
			"/v1/owner?ip=" + o + "+",
			"/v1/owner?ip=%3Cscript%3E%26%22%5C%E2%80%A8%FF%01",
			"/v1/owner?ip=silent",
			"/v1/link?near=" + o + "&far=silent",
			"/v1/link?near=0.0.0.0",
			"/v1/link?near=&far=",
			"/v1/neighbors?as=AS" + strconv.FormatUint(uint64(s.NeighborASes()[0]), 10),
			"/v1/neighbors?as=as4294967295",
			"/v1/neighbors?as=4294967296",
			"/v1/neighbors?as=",
			"/v1/diff?from=x&to=1",
			"/v1/diff?from=2&to=1",
			"/v1/nope<&>",
		} {
			serve(target)
		}
		for _, tc := range httpErrorCases {
			serve(tc.url)
		}
		requireReplyMatchesOracle(t, h, st, http.MethodPost, "/v1/gen")
	}
	if zeroNear == 0 {
		t.Fatal("no served link has an unobserved near side; the 404 rule went unexercised")
	}
}

// FuzzReplyEncoding sends arbitrary strings (heuristic, VP name, error
// code and message: HTML characters, control bytes, invalid UTF-8, U+2028
// and U+2029 all reach it) and numbers through the appended replies and
// the reflective ones, and requires the same bytes.
func FuzzReplyEncoding(f *testing.F) {
	f.Add("as-relationship", "vp-0", "not_found", "no handler for /v1/x", 1, uint32(64500), uint32(0x0a000001), uint32(0), 3, true)
	f.Add("<&>", "\u2028\u2029", "\"q\"\\", "\x00\b\f\n\r\t\x1f\x7f", -7, uint32(0), uint32(0), uint32(0xffffffff), -1, false)
	f.Add("\xff\xfe", "\xe2\x80", "", "\xed\xa0\x80 \U0001F600 \u00e9", 1<<40, ^uint32(0), uint32(0x7f000001), uint32(1), 0, true)
	f.Fuzz(func(t *testing.T, heur, vp, code, msg string, gen int, as, near, far uint32, hop int, host bool) {
		check := func(what string, got, want []byte) {
			t.Helper()
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: appended\n%s\nencoding/json\n%s", what, got, want)
			}
		}
		o := OwnerInfo{AS: topo.ASN(as), Heuristic: heur, Host: host, HopDist: hop}
		check("owner", appendOwnerReply(nil, gen, netx.Addr(near), o), oracleOwnerReply(gen, netx.Addr(near), o))
		l := Link{Near: netx.Addr(near), Far: netx.Addr(far), FarAS: topo.ASN(as), Heuristic: heur}
		check("link", appendLinkReply(nil, gen, l), oracleLinkReply(gen, l))
		ls := []Link{l, {Near: netx.Addr(far), FarAS: topo.ASN(as)}, {Far: netx.Addr(near), Heuristic: msg}}
		for k := 0; k <= len(ls); k++ {
			check("neighbors", appendNeighborsReply(nil, gen, topo.ASN(as), ls[:k]), oracleNeighborsReply(gen, topo.ASN(as), ls[:k]))
			check("diff links", oracleJSON(linksJSON(ls[:k])), oracleJSON(oracleLinks(ls[:k])))
		}
		for _, vps := range [][]string{nil, {}, {vp}, {vp, msg, heur}} {
			s := &Snapshot{gen: gen, host: topo.ASN(as), vps: vps}
			for _, gens := range [][]int{{}, {gen}, {gen, hop, 1}} {
				check("gen", appendGenReply(nil, s, gens), oracleGenReply(s, gens))
			}
		}
		check("error", appendError(nil, code, msg), oracleError(code, msg))
		check("error from bytes", appendError(nil, code, []byte(msg)), oracleError(code, msg))
	})
}

// FuzzQueryValue holds queryValue to url.ParseQuery(q).Get(key) on
// arbitrary raw queries and keys.
func FuzzQueryValue(f *testing.F) {
	f.Add("ip=10.0.0.1", "ip")
	f.Add("near=10.0.0.1&far=10.0.0.2&near=junk", "near")
	f.Add("a;b=1&ip=%zz&ip=x+y&i%70=z", "ip")
	f.Add("&&=&ip&ip=1", "ip")
	f.Add("%3B=1&%3b=2", ";")
	f.Add("k+1=v%2B&k 1=w", "k 1")
	f.Fuzz(func(t *testing.T, q, key string) {
		vals, _ := url.ParseQuery(q)
		if got, want := queryValue(q, key), vals.Get(key); got != want {
			t.Fatalf("queryValue(%q, %q) = %q, url.ParseQuery says %q", q, key, got, want)
		}
	})
}
