package rir

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"bdrmap/internal/netx"
)

// The parsing half of the delegation format: the world only ever writes
// it (DB.WriteTo), so the reader that proves the round trip lives here.

// ParseLine parses one delegation line. Comment lines (#...), summary
// lines, and non-ipv4 records return ok=false with a nil error.
func ParseLine(line string) (Record, bool, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return Record{}, false, nil
	}
	f := strings.Split(line, "|")
	if len(f) >= 6 && f[5] == "summary" {
		return Record{}, false, nil
	}
	if len(f) < 7 {
		return Record{}, false, fmt.Errorf("rir: short line %q", line)
	}
	if f[2] != "ipv4" {
		return Record{}, false, nil
	}
	start, err := netx.ParseAddr(f[3])
	if err != nil {
		return Record{}, false, fmt.Errorf("rir: bad start in %q: %v", line, err)
	}
	count, err := strconv.ParseUint(f[4], 10, 32)
	if err != nil || count == 0 {
		return Record{}, false, fmt.Errorf("rir: bad count in %q", line)
	}
	rec := Record{
		Registry: f[0], CC: f[1], Start: start, Count: uint32(count),
		Date: f[5], Status: f[6],
	}
	if len(f) >= 8 {
		rec.OrgID = f[7]
	}
	return rec, true, nil
}

// Parse reads delegation lines from r, skipping comments and summaries.
func Parse(r io.Reader) (*DB, error) {
	db := &DB{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rec, ok, err := ParseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if ok {
			db.recs = append(db.recs, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	db.normalize()
	return db, nil
}

// Records returns a copy of all records, in Start order.
func (db *DB) Records() []Record {
	out := make([]Record, len(db.byStart))
	for j, i := range db.byStart {
		out[j] = db.recs[i]
	}
	return out
}
