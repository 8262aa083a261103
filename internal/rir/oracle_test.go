package rir

import (
	"bytes"
	"slices"
	"sort"
	"testing"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// oracleDB is the delegation table as it was before records were grouped
// by organization in place: the records sorted by Start in one slice, and
// each copied again into a per-organization map.
type oracleDB struct {
	recs    []Record
	orgRecs map[string][]Record
}

func newOracleDB(net *topo.Network) *oracleDB {
	db := &oracleDB{orgRecs: make(map[string][]Record)}
	for _, d := range net.Delegations {
		db.recs = append(db.recs, Record{
			Registry: "arin", CC: "US",
			Start: d.Prefix.First(), Count: uint32(d.Prefix.NumAddrs()),
			Date: "20160101", Status: "allocated", OrgID: d.OrgID,
		})
	}
	sort.Slice(db.recs, func(i, j int) bool {
		if db.recs[i].Start != db.recs[j].Start {
			return db.recs[i].Start < db.recs[j].Start
		}
		return db.recs[i].Count > db.recs[j].Count
	})
	for _, r := range db.recs {
		db.orgRecs[r.OrgID] = append(db.orgRecs[r.OrgID], r)
	}
	return db
}

func (db *oracleDB) orgOf(addr netx.Addr) (string, bool) {
	i := sort.Search(len(db.recs), func(i int) bool { return db.recs[i].Start > addr })
	bestCount, org, found := uint32(0), "", false
	for j := i - 1; j >= 0; j-- {
		r := db.recs[j]
		if r.End() >= addr && (!found || r.Count < bestCount) {
			org, bestCount, found = r.OrgID, r.Count, true
		}
		if addr-r.Start >= netx.Addr(maxCount) {
			break
		}
	}
	return org, found
}

// TestDBMatchesOracle: grouping the records by organization in place and
// searching them through a Start-order index writes the same file, and
// answers OrgOf and OrgRecords as the Start-sorted table and its per-org
// copies did, on every built-in world.
func TestDBMatchesOracle(t *testing.T) {
	for _, prof := range topo.BuiltinProfiles() {
		for seed := int64(1); seed <= 2; seed++ {
			n := topo.Generate(prof, seed)
			got, want := FromNetwork(n), newOracleDB(n)
			var gb, wb bytes.Buffer
			got.WriteTo(&gb)
			for _, r := range want.recs {
				wb.WriteString(r.Line() + "\n")
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				t.Fatalf("%s seed %d: WriteTo differs from the Start-sorted table", prof.Name, seed)
			}
			for _, r := range want.recs {
				for _, a := range []netx.Addr{r.Start - 1, r.Start, r.Start + netx.Addr(r.Count/2), r.End(), r.End() + 1} {
					go1, gok := got.OrgOf(a)
					wo, wok := want.orgOf(a)
					if go1 != wo || gok != wok {
						t.Fatalf("%s seed %d: OrgOf(%v) = %q %v, want %q %v", prof.Name, seed, a, go1, gok, wo, wok)
					}
				}
			}
			for org, recs := range want.orgRecs {
				if !slices.Equal(got.OrgRecords(org), recs) {
					t.Fatalf("%s seed %d: OrgRecords(%q) differs", prof.Name, seed, org)
				}
			}
		}
	}
}
