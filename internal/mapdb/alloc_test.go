//go:build !race

package mapdb

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"bdrmap/internal/core"
	"bdrmap/internal/obs"
)

// The race detector makes sync.Pool drop a quarter of what is put back, so
// a reply's pooled buffer is refilled at random there: the budget below is
// measured without the detector (CI runs it in its own step).

// discardWriter is a ResponseWriter that keeps one header map and counts
// the body, so the allocations measured are the handler's own.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(s int)   { d.status = s }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// TestReadRepliesAllocFree is the read path's allocation budget: each of
// the five hot replies — owner hit, owner miss, link, neighbors, gen —
// allocates at most once per request through the instrumented handler (the
// slack is a sync.Pool refill after a collection).
func TestReadRepliesAllocFree(t *testing.T) {
	reg := obs.New()
	st := NewStore(0, reg)
	st.Publish(Compile(64500, []*core.Result{syntheticResult("vp", 8, 60000)}))
	st.Publish(Compile(64500, []*core.Result{syntheticResult("vp", 9, 60000)}))
	h := Handler(st, reg)
	s := st.Current()
	l := s.links[0]
	for _, tc := range []struct{ name, target string }{
		{"owner hit", "/v1/owner?ip=" + s.ownerAddrs[0].String()},
		{"owner miss", "/v1/owner?ip=203.0.113.77"},
		{"link", "/v1/link?near=" + l.Near.String() + "&far=" + l.Far.String()},
		{"neighbors", "/v1/neighbors?as=" + strconv.FormatUint(uint64(l.FarAS), 10)},
		{"gen", "/v1/gen"},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.target, nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, req)
		if w.n == 0 || (w.status != http.StatusOK) != (tc.name == "owner miss") {
			t.Fatalf("%s: status %d, %d body bytes", tc.name, w.status, w.n)
		}
		if n := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); n > 1 {
			t.Errorf("%s: %.0f allocations per request, budget 1", tc.name, n)
		}
	}
}
