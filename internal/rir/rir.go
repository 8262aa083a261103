// Package rir models the extended delegation files published by the five
// Regional Internet Registries. bdrmap uses them (§5.2, §5.4.1) to
// attribute address space that is delegated to an organization but not
// originated in BGP: the files map address blocks to opaque organization
// IDs that group the delegations of a single org without naming an AS.
//
// The package serializes the dataset in the standard line format
//
//	registry|cc|ipv4|start|count|date|status|opaque-id
//
// and its tests parse it back, so the dataset round-trips through files
// exactly like real RIR data.
package rir

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"bdrmap/internal/netx"
	"bdrmap/internal/topo"
)

// Record is one delegation: an address range assigned to an organization.
// Count follows RIR conventions and need not be a power of two.
type Record struct {
	Registry string
	CC       string
	Start    netx.Addr
	Count    uint32
	Date     string
	Status   string
	OrgID    string
}

// End returns the last address of the delegation.
func (r Record) End() netx.Addr { return r.Start + netx.Addr(r.Count) - 1 }

// Line renders the record in the extended delegation format.
func (r Record) Line() string {
	return strings.Join([]string{
		r.Registry, r.CC, "ipv4", r.Start.String(),
		strconv.FormatUint(uint64(r.Count), 10), r.Date, r.Status, r.OrgID,
	}, "|")
}

// DB is a queryable set of delegations.
type DB struct {
	// recs holds the records grouped by organization, each group in Start
	// order, so OrgRecords hands a group out where it lies (§5.4.1's
	// positional rule walks the delegations of each host org per matching
	// hop).
	recs []Record
	// byStart lists recs by Start, larger delegations first at one Start:
	// the order OrgOf searches and WriteTo writes.
	byStart []int32
}

// FromNetwork builds the delegation dataset the synthetic world publishes.
func FromNetwork(net *topo.Network) *DB {
	db := &DB{recs: make([]Record, len(net.Delegations))}
	for i, d := range net.Delegations {
		db.recs[i] = Record{
			Registry: "arin", CC: "US",
			Start: d.Prefix.First(), Count: uint32(d.Prefix.NumAddrs()),
			Date: "20160101", Status: "allocated", OrgID: d.OrgID,
		}
	}
	db.normalize()
	return db
}

// normalize orders db.recs, given in any order, and indexes them.
func (db *DB) normalize() {
	n := len(db.recs)
	db.byStart = make([]int32, n)
	for i := range db.byStart {
		db.byStart[i] = int32(i)
	}
	slices.SortFunc(db.byStart, func(a, b int32) int {
		// Smaller (more specific) delegations after larger ones so that
		// OrgOf's scan prefers the most specific covering record.
		ra, rb := &db.recs[a], &db.recs[b]
		return cmp.Or(cmp.Compare(ra.Start, rb.Start), cmp.Compare(rb.Count, ra.Count))
	})
	// byOrg[k] is the record that goes to slot k: Start order, grouped by
	// organization.
	byOrg := slices.Clone(db.byStart)
	slices.SortStableFunc(byOrg, func(a, b int32) int { return strings.Compare(db.recs[a].OrgID, db.recs[b].OrgID) })
	slot := make([]int32, n)
	for k, i := range byOrg {
		slot[i] = int32(k)
	}
	for j, i := range db.byStart {
		db.byStart[j] = slot[i]
	}
	// Move each record to its slot, one cycle of the permutation at a
	// time; a visited slot's byOrg entry becomes its own index.
	for k := range byOrg {
		if byOrg[k] == int32(k) {
			continue
		}
		r := db.recs[k]
		j := int32(k)
		for byOrg[j] != int32(k) {
			next := byOrg[j]
			db.recs[j], byOrg[j] = db.recs[next], j
			j = next
		}
		db.recs[j], byOrg[j] = r, j
	}
}

// WriteTo serializes the dataset.
func (db *DB) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, i := range db.byStart {
		m, err := fmt.Fprintln(w, db.recs[i].Line())
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Len returns the number of delegation records.
func (db *DB) Len() int { return len(db.recs) }

// OrgOf returns the organization holding the most specific delegation
// covering addr.
func (db *DB) OrgOf(addr netx.Addr) (string, bool) {
	// Binary search to the last record with Start <= addr, then scan
	// backwards through covering candidates keeping the smallest range.
	i := sort.Search(len(db.byStart), func(i int) bool { return db.recs[db.byStart[i]].Start > addr })
	bestCount := uint32(0)
	org := ""
	found := false
	for j := i - 1; j >= 0; j-- {
		r := &db.recs[db.byStart[j]]
		if r.End() >= addr {
			if !found || r.Count < bestCount {
				org, bestCount, found = r.OrgID, r.Count, true
			}
		}
		// Records start at or before addr; once ranges cannot reach addr
		// anymore we can stop: ranges are bounded by the largest Count.
		if addr-r.Start >= netx.Addr(maxCount) {
			break
		}
	}
	return org, found
}

// maxCount bounds the backward scan in OrgOf; delegations larger than a /8
// do not occur.
const maxCount = 1 << 24

// OrgRecords returns the delegations held by org, in Start order. The
// returned slice is shared and must not be mutated; it performs no copy,
// so callers may consult it per address without turning the delegation
// table into the process's top allocator.
func (db *DB) OrgRecords(org string) []Record {
	cmpOrg := func(r Record, org string) int { return strings.Compare(r.OrgID, org) }
	lo, ok := slices.BinarySearchFunc(db.recs, org, cmpOrg)
	if !ok {
		return nil
	}
	hi := lo + 1
	for hi < len(db.recs) && db.recs[hi].OrgID == org {
		hi++
	}
	return db.recs[lo:hi:hi]
}
