package eval

import "bdrmap/internal/core"

// RowPct returns the percentage of class-c neighbor routers heuristic h
// attributed (for programmatic shape checks).
func (t *Table1) RowPct(h core.Heuristic, c int) float64 {
	row := t.Rows[h]
	if row == nil || t.RouterTotals[c] == 0 {
		return 0
	}
	return 100 * float64(row[c]) / float64(t.RouterTotals[c])
}
