package mapdb

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// Empty reports whether nothing changed between the generations.
func (d *GenDiff) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 && len(d.OwnerChanges) == 0 &&
		len(d.OwnersSet) == 0 && len(d.OwnersRemoved) == 0 && len(d.Relabeled) == 0
}

// The read replies as encoding/json rendered them before the hot ones were
// appended by hand: reflective structs through an indenting json.Encoder,
// errors through a plain one, and url.Values for the query. They are the
// oracle the appended replies are held to, byte for byte.

type oracleLinkJSON struct {
	Near      string `json:"near"`
	Far       string `json:"far"`
	FarAS     uint32 `json:"far_as"`
	Heuristic string `json:"heuristic,omitempty"`
}

func oracleLink(l Link) oracleLinkJSON {
	far := l.Far.String()
	if l.Far.IsZero() {
		far = "silent"
	}
	return oracleLinkJSON{Near: l.Near.String(), Far: far, FarAS: uint32(l.FarAS), Heuristic: l.Heuristic}
}

func oracleLinks(ls []Link) []oracleLinkJSON {
	out := make([]oracleLinkJSON, len(ls))
	for i, l := range ls {
		out[i] = oracleLink(l)
	}
	return out
}

func oracleJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

func oracleError(code, msg string) []byte {
	type apiError struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(struct {
		Error apiError `json:"error"`
	}{apiError{code, msg}})
	return buf.Bytes()
}

func oracleOwnerReply(gen int, ip netx.Addr, o OwnerInfo) []byte {
	return oracleJSON(struct {
		Gen       int    `json:"gen"`
		IP        string `json:"ip"`
		AS        uint32 `json:"as"`
		Heuristic string `json:"heuristic"`
		Host      bool   `json:"host"`
		HopDist   int    `json:"hop_dist"`
	}{gen, ip.String(), uint32(o.AS), o.Heuristic, o.Host, o.HopDist})
}

func oracleLinkReply(gen int, l Link) []byte {
	return oracleJSON(struct {
		Gen  int            `json:"gen"`
		Link oracleLinkJSON `json:"link"`
	}{gen, oracleLink(l)})
}

func oracleNeighborsReply(gen int, as topo.ASN, ls []Link) []byte {
	return oracleJSON(struct {
		Gen   int              `json:"gen"`
		AS    uint32           `json:"as"`
		Count int              `json:"count"`
		Links []oracleLinkJSON `json:"links"`
	}{gen, uint32(as), len(ls), oracleLinks(ls)})
}

func oracleGenReply(s *Snapshot, gens []int) []byte {
	return oracleJSON(struct {
		Gen         int      `json:"gen"`
		HostAS      uint32   `json:"host_as"`
		VPs         []string `json:"vps"`
		Links       int      `json:"links"`
		Neighbors   int      `json:"neighbors"`
		Owners      int      `json:"owners"`
		Generations []int    `json:"generations"`
	}{s.Gen(), uint32(s.HostASN()), s.VPs(), s.NumLinks(), len(s.NeighborASes()), s.NumOwners(), gens})
}

func oracleDiffReply(d *GenDiff) []byte {
	changes := make([]struct {
		Addr string `json:"addr"`
		From uint32 `json:"from"`
		To   uint32 `json:"to"`
	}, len(d.OwnerChanges))
	for i, c := range d.OwnerChanges {
		changes[i].Addr = c.Addr.String()
		changes[i].From = uint32(c.From)
		changes[i].To = uint32(c.To)
	}
	return oracleJSON(struct {
		From             int              `json:"from"`
		To               int              `json:"to"`
		Added            []oracleLinkJSON `json:"added"`
		Removed          []oracleLinkJSON `json:"removed"`
		NeighborsAdded   []uint32         `json:"neighbors_added"`
		NeighborsRemoved []uint32         `json:"neighbors_removed"`
		OwnerChanges     any              `json:"owner_changes"`
	}{
		From: d.From, To: d.To,
		Added: oracleLinks(d.Added), Removed: oracleLinks(d.Removed),
		NeighborsAdded:   toASNsJSON(d.NeighborsAdded),
		NeighborsRemoved: toASNsJSON(d.NeighborsRemoved),
		OwnerChanges:     changes,
	})
}

// oracleServe answers one GET of target on st as the reflective handlers
// did: the five hot replies, /v1/diff and the error surface of both. It
// returns the status and body; the Content-Type was always JSON.
func oracleServe(st *Store, method, target string) (int, []byte) {
	path, raw, _ := strings.Cut(target, "?")
	q, _ := url.ParseQuery(raw)
	if method != http.MethodGet && method != http.MethodHead {
		return http.StatusMethodNotAllowed, oracleError("method_not_allowed", method+" not supported; use GET")
	}
	bad := func(code, msg string) (int, []byte) { return http.StatusBadRequest, oracleError(code, msg) }
	addr := func(key string, required bool) (netx.Addr, int, []byte) {
		v := q.Get(key)
		if v == "" || v == "silent" {
			if !required {
				return 0, 0, nil
			}
			c, b := bad("missing_parameter", "query parameter "+key+" is required")
			return 0, c, b
		}
		a, err := netx.ParseAddr(v)
		if err != nil {
			c, b := bad("bad_address", key+": "+err.Error())
			return 0, c, b
		}
		return a, 0, nil
	}
	intParam := func(key string) (int, int, []byte) {
		v := q.Get(key)
		if v == "" {
			c, b := bad("missing_parameter", "query parameter "+key+" is required")
			return 0, c, b
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			c, b := bad("bad_generation", key+": cannot parse "+strconv.Quote(v))
			return 0, c, b
		}
		return n, 0, nil
	}
	snap := func() *Snapshot { return st.Current() }
	unpublished := func() (int, []byte) {
		return http.StatusServiceUnavailable, oracleError("no_generation", "no map generation published yet")
	}
	notFound := func(code, msg string) (int, []byte) { return http.StatusNotFound, oracleError(code, msg) }

	switch path {
	case "/v1/gen":
		s := snap()
		if s == nil {
			return unpublished()
		}
		return http.StatusOK, oracleGenReply(s, st.Generations())
	case "/v1/owner":
		a, code, body := addr("ip", true)
		if body != nil {
			return code, body
		}
		s := snap()
		if s == nil {
			return unpublished()
		}
		o, ok := s.Owner(a)
		if !ok {
			return notFound("unknown_interface", a.String()+" was not observed in any trace of generation "+strconv.Itoa(s.Gen()))
		}
		return http.StatusOK, oracleOwnerReply(s.Gen(), a, o)
	case "/v1/link":
		near, code, body := addr("near", true)
		if body != nil {
			return code, body
		}
		far, code, body := addr("far", false)
		if body != nil {
			return code, body
		}
		s := snap()
		if s == nil {
			return unpublished()
		}
		l, ok := s.Link(near, far)
		if !ok {
			return notFound("not_a_border", "no inferred interdomain link on that hop pair in generation "+strconv.Itoa(s.Gen()))
		}
		return http.StatusOK, oracleLinkReply(s.Gen(), l)
	case "/v1/neighbors":
		v := q.Get("as")
		if v == "" {
			return bad("missing_parameter", "query parameter as is required")
		}
		n, err := strconv.ParseUint(strings.TrimPrefix(strings.TrimPrefix(v, "AS"), "as"), 10, 32)
		if err != nil {
			return bad("bad_asn", "as: cannot parse "+strconv.Quote(v))
		}
		s := snap()
		if s == nil {
			return unpublished()
		}
		as := topo.ASN(n)
		links := s.Neighbors(as)
		if len(links) == 0 {
			return notFound("unknown_neighbor", as.String()+" has no inferred link in generation "+strconv.Itoa(s.Gen()))
		}
		return http.StatusOK, oracleNeighborsReply(s.Gen(), as, links)
	case "/v1/diff":
		from, code, body := intParam("from")
		if body != nil {
			return code, body
		}
		to, code, body := intParam("to")
		if body != nil {
			return code, body
		}
		d, err := st.Diff(from, to)
		if err != nil {
			var br *BadRangeError
			if errors.As(err, &br) {
				return bad("bad_range", err.Error())
			}
			return notFound("unknown_generation", err.Error())
		}
		return http.StatusOK, oracleDiffReply(d)
	case "/v1/fleet":
		return notFound("no_fleet", "no fleet coordinator has run in this process")
	}
	return notFound("not_found", "no handler for "+path)
}
